"""CPPN synthesis, wrap-aware centroids, pattern fitness, GA loop."""
import numpy as np
import pytest

import cellevo.patterns as patterns
import cellevo.rules as rules
from cellevo.config import PatternEvoConfig
from cellevo.grid import place_centered
from cellevo.patterns import (
    ACT_NAMES,
    CppnGenome,
    PatternFitness,
    TruncationGA,
    evaluate_tiles,
    evolve_patterns,
    mutate,
    random_genome,
    synthesize,
)
from cellevo.rules import GrowthBump, KernelSpec, RuleParams, load_preset
from conftest import (
    loop_center_of_mass,
    loop_synthesize,
    plain_trajectory,
    reference_tile_fitness,
)

SMALL_KERNEL = KernelSpec(radius=3, ring_weights=(1.0,))
SMALL_RULE = RuleParams(
    "small", "lenia", SMALL_KERNEL, 0.1, growth=GrowthBump(0.15, 0.015)
)
FROZEN_RULE = RuleParams(
    "frozen", "lenia", SMALL_KERNEL, 0.0, growth=GrowthBump(0.15, 0.015)
)
FAST_CFG = PatternEvoConfig(
    grid_side=24, tile_side=12, steps=8, stride=4, population=6, generations=3,
    rule=SMALL_RULE,
)


def center_of_mass(grid):
    """Centroid of one grid, through the batched CoM the fitness uses."""
    row, col = patterns._com_batch(np.asarray(grid)[None])[0]
    return float(row), float(col)


def evaluate_tile(tile, cfg):
    return evaluate_tiles([tile], cfg)[0]


@pytest.fixture
def shift_right(monkeypatch):
    """Make the fitness loop's `step` move a grid one cell along its rows.

    `trajectory` looks `step` up in `cellevo.rules`, so that is the name
    patched. A full 0.7 tile never reaches zero, so retirement cannot fire.
    """
    monkeypatch.setattr(rules, "step", lambda s, rule: np.roll(s, 1, axis=-1))


def pack(w1, b1, w2, b2, w3, b3, acts):
    """A genome from named layers and (2, 12) activation indices."""
    params = np.concatenate([np.ravel(w) for w in (w1, b1, w2, b2, w3, b3)])
    return CppnGenome(params, np.asarray(acts))


def zero_weight_genome():
    return pack(
        np.zeros((12, 4)), np.zeros(12), np.zeros((12, 12)), np.zeros(12),
        np.zeros(12), 0.0, np.full((2, 12), ACT_NAMES.index("identity")),
    )


def same_genome(a, b):
    return np.array_equal(a.params, b.params) and np.array_equal(a.acts, b.acts)


class TestGenome:
    def test_random_genome_deterministic(self):
        a = random_genome(np.random.default_rng(4))
        b = random_genome(np.random.default_rng(4))
        assert np.array_equal(a.layers()[0], b.layers()[0])
        assert np.array_equal(a.layers()[2], b.layers()[2])
        assert np.array_equal(a.acts, b.acts)

    def test_random_genome_draw_order(self):
        # The documented order, one draw per layer: w1, b1, acts1, w2, b2,
        # acts2, w3, b3. A vector sliced in another order fails here.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            w1, b1 = rng.standard_normal((12, 4)), rng.standard_normal(12)
            acts1 = rng.integers(0, len(ACT_NAMES), 12)
            w2, b2 = rng.standard_normal((12, 12)), rng.standard_normal(12)
            acts2 = rng.integers(0, len(ACT_NAMES), 12)
            w3, b3 = rng.standard_normal(12), rng.standard_normal()
            g = random_genome(np.random.default_rng(seed))
            for got, want in zip(g.layers(), (w1, b1, w2, b2, w3, b3)):
                assert got.shape == np.shape(want)
                assert np.array_equal(got, want)
            assert np.array_equal(g.acts, np.stack([acts1, acts2]))

    def test_layers_are_views_of_params(self):
        g = random_genome(np.random.default_rng(6))
        assert g.params.shape == (229,) and g.acts.shape == (2, 12)
        assert all(np.shares_memory(layer, g.params) for layer in g.layers())

    def test_mutate_deterministic_and_small(self):
        g = random_genome(np.random.default_rng(0))
        a = mutate(g, np.random.default_rng(3), weight_std=0.1, act_prob=0.05)
        b = mutate(g, np.random.default_rng(3), weight_std=0.1, act_prob=0.05)
        assert np.array_equal(a.layers()[2], b.layers()[2])
        assert np.array_equal(a.acts[0], b.acts[0])
        # Perturbation magnitude on the order of the std, not larger.
        assert 0.0 < np.abs(a.layers()[2] - g.layers()[2]).max() < 0.6

    def test_mutate_draws_noise_before_flips(self):
        g = random_genome(np.random.default_rng(0))
        before = g.params.copy(), g.acts.copy()
        rng = np.random.default_rng(5)
        params = g.params + rng.normal(0.0, 0.1, g.params.size)
        acts = g.acts.copy()
        for j in range(acts.size):
            if rng.random() < 0.5:
                acts.flat[j] = rng.integers(0, len(ACT_NAMES))
        got = mutate(g, np.random.default_rng(5), 0.1, 0.5)
        assert np.array_equal(got.params, params)
        assert np.array_equal(got.acts, acts)
        assert not np.array_equal(acts, g.acts)  # some node did redraw
        assert np.array_equal(g.params, before[0]) and np.array_equal(g.acts, before[1])

    def test_mutate_act_prob_extremes(self):
        g = zero_weight_genome()
        same = mutate(g, np.random.default_rng(1), weight_std=0.1, act_prob=0.0)
        assert np.array_equal(same.acts, g.acts)
        # With prob 1 every node resamples; indices remain in the allowed set.
        flipped = mutate(g, np.random.default_rng(1), weight_std=0.1, act_prob=1.0)
        assert all(0 <= a < len(ACT_NAMES) for a in flipped.acts.flat)


class TestSynthesize:
    def test_zero_genome_half_inside_disc(self):
        tile = synthesize(zero_weight_genome(), 9)
        assert tile[4, 4] == 0.5
        assert tile[4, 0] == 0.5 and tile[0, 4] == 0.5  # r = 1 kept
        assert tile[0, 0] == 0.0 and tile[8, 8] == 0.0  # corners r > 1

    def test_values_in_unit_interval_and_masked(self):
        for seed in range(5):
            g = random_genome(np.random.default_rng(seed))
            tile = synthesize(g, 21)
            assert tile.min() >= 0.0 and tile.max() <= 1.0
            coords = np.linspace(-1, 1, 21)
            r = np.hypot(coords[None, :], coords[:, None])
            assert np.all(tile[r > 1.0] == 0.0)

    def test_deterministic(self):
        g = random_genome(np.random.default_rng(7))
        assert np.array_equal(synthesize(g, 15), synthesize(g, 15))

    def test_mirror_symmetry_when_x_ignored(self):
        g = random_genome(np.random.default_rng(2))
        w1, b1, w2, b2, w3, b3 = g.layers()
        sym = pack(w1 * np.array([0.0, 1.0, 1.0, 1.0]), b1, w2, b2, w3, b3, g.acts)
        tile = synthesize(sym, 17)
        assert np.allclose(tile, tile[:, ::-1], atol=1e-12)

    @pytest.mark.parametrize("side", [9, 16, 21])
    def test_matches_loop_oracle(self, side):
        genomes = [random_genome(np.random.default_rng(s)) for s in range(5)]
        for g in [zero_weight_genome(), *genomes]:
            want = loop_synthesize(g.layers(), g.acts, side)
            assert np.abs(synthesize(g, side) - want).max() <= 1e-12

    def test_rejects_tiny_side(self):
        with pytest.raises(ValueError, match="side"):
            synthesize(zero_weight_genome(), 2)


class TestCenterOfMass:
    def test_single_cell(self):
        grid = np.zeros((16, 16))
        grid[5, 9] = 0.8
        row, col = center_of_mass(grid)
        assert row == pytest.approx(5.0, abs=1e-9)
        assert col == pytest.approx(9.0, abs=1e-9)

    def test_empty_grid_gives_center(self):
        assert center_of_mass(np.zeros((12, 20))) == (6.0, 10.0)

    def test_mass_split_across_wrap(self):
        grid = np.zeros((8, 16))
        grid[3, 0] = 1.0
        grid[3, 15] = 1.0
        row, col = center_of_mass(grid)
        assert row == pytest.approx(3.0, abs=1e-9)
        assert col == pytest.approx(15.5, abs=1e-9)  # not 7.5

    def test_balanced_ring_degenerates_to_center(self):
        # Uniform mass: circular resultant cancels exactly on both axes.
        row, col = center_of_mass(np.full((10, 10), 0.3))
        assert (row, col) == (5.0, 5.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            grid = rng.random((9, 13))
            got = center_of_mass(grid)
            want = loop_center_of_mass(grid)
            assert got[0] == pytest.approx(want[0], abs=1e-9)
            assert got[1] == pytest.approx(want[1], abs=1e-9)

    def test_shift_moves_com_by_one(self):
        rng = np.random.default_rng(5)
        grid = np.zeros((16, 16))
        grid[6:10, 6:10] = rng.random((4, 4))
        r0, c0 = center_of_mass(grid)
        r1, c1 = center_of_mass(np.roll(grid, 1, axis=1))
        assert c1 - c0 == pytest.approx(1.0, abs=1e-9)
        assert r1 == pytest.approx(r0, abs=1e-9)


class TestEvaluate:
    def test_frozen_rule_zero_motility(self):
        tile = np.full((8, 8), 0.5)
        cfg = PatternEvoConfig(grid_side=24, tile_side=8, steps=8, stride=4,
                               rule=FROZEN_RULE)
        fit = evaluate_tile(tile, cfg)
        assert fit.motility == 0.0
        assert fit.homeostasis_penalty == 0.0
        assert fit.survived
        assert fit.total == 0.0

    def test_vanishing_tile_penalized(self):
        tile = np.zeros((8, 8))
        cfg = PatternEvoConfig(grid_side=24, tile_side=8, steps=8, stride=4,
                               rule=SMALL_RULE)
        fit = evaluate_tile(tile, cfg)
        assert not fit.survived
        assert fit.total == -1000.0

    @pytest.mark.usefixtures("shift_right")
    def test_translation_double_gives_exact_motility(self):
        tile = np.full((10, 10), 0.7)
        cfg = PatternEvoConfig(grid_side=128, tile_side=10, steps=64, stride=8,
                               rule=SMALL_RULE)
        fit = evaluate_tile(tile, cfg)
        assert fit.motility == pytest.approx(64.0, abs=1e-6)
        assert fit.survived
        assert fit.homeostasis_penalty == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.usefixtures("shift_right")
    def test_translation_across_wrap_boundary(self):
        # 128 steps on a 128-wide torus: ends where it started, but the
        # accumulated wrapped deltas measure a full lap.
        tile = np.full((10, 10), 0.7)
        cfg = PatternEvoConfig(grid_side=128, tile_side=10, steps=128, stride=8,
                               rule=SMALL_RULE)
        fit = evaluate_tile(tile, cfg)
        assert fit.motility == pytest.approx(128.0, abs=1e-6)

    @pytest.mark.usefixtures("shift_right")
    def test_off_stride_last_step_is_a_checkpoint(self):
        # Checkpoints at steps 4, 8 and 10: the last two shifts count too.
        tile = np.full((10, 10), 0.7)
        cfg = PatternEvoConfig(grid_side=64, tile_side=10, steps=10, stride=4,
                               rule=SMALL_RULE)
        fit = evaluate_tile(tile, cfg)
        assert fit.motility == pytest.approx(10.0, abs=1e-6)

    def test_batch_matches_single_bitwise(self):
        rng = np.random.default_rng(8)
        tiles = [
            rng.random((12, 12)) * 0.8,
            np.zeros((12, 12)),
            np.full((12, 12), 0.4),
        ]
        before = [tile.copy() for tile in tiles]
        cfg = PatternEvoConfig(grid_side=32, tile_side=12, steps=12, stride=4,
                               rule=SMALL_RULE)
        batch = evaluate_tiles(tiles, cfg)
        for tile, got in zip(tiles, batch):
            alone = evaluate_tile(tile, cfg)
            assert alone == got
        for tile, copy in zip(tiles, before):
            assert np.array_equal(tile, copy) and tile.flags.writeable

    def test_dead_drop_matches_reference_loop(self):
        # Straight simulation without the early-exit bookkeeping. The uniform
        # tile is exactly 0 after one step, so it retires ahead of survivors.
        rng = np.random.default_rng(9)
        tiles = [np.full((12, 12), 0.05), *(rng.random((12, 12)) for _ in range(3))]
        cfg = PatternEvoConfig(grid_side=32, tile_side=12, steps=16, stride=4,
                               rule=SMALL_RULE)
        fast = evaluate_tiles(tiles, cfg)
        start = np.stack([place_centered(cfg.grid_side, t) for t in tiles])
        states = plain_trajectory(start, SMALL_RULE, cfg.steps)
        plain = reference_tile_fitness(states, cfg)
        assert fast == plain


class TestEvolvePatterns:
    def test_bookkeeping_single_generation(self):
        cfg = PatternEvoConfig(
            grid_side=24, tile_side=12, steps=4, stride=2,
            population=4, generations=1, rule=SMALL_RULE,
        )
        res = evolve_patterns(cfg, seed=0)
        assert res.evaluations == 4
        assert len(res.history) == 1
        rec = res.history[0]
        assert rec["generation"] == 1
        assert rec["mode"] == "pattern"
        assert rec["seed"] == 0

    def test_evaluation_count_with_caching(self):
        res = evolve_patterns(FAST_CFG, seed=1)
        keep = round(FAST_CFG.population * FAST_CFG.truncation)
        expected = FAST_CFG.population + (FAST_CFG.generations - 1) * (
            FAST_CFG.population - keep
        )
        assert res.evaluations == expected

    def test_best_so_far_non_decreasing(self):
        res = evolve_patterns(FAST_CFG, seed=2)
        bests = [rec["best_fitness"] for rec in res.history]
        assert all(b >= a - 1e-12 for a, b in zip(bests, bests[1:]))
        assert res.best_fitness.total == pytest.approx(max(bests))

    def test_deterministic(self):
        a = evolve_patterns(FAST_CFG, seed=5)
        b = evolve_patterns(FAST_CFG, seed=5)
        assert a.history == b.history
        assert np.array_equal(synthesize(a.best, 12), synthesize(b.best, 12))

    def test_genome_stream_layout(self, monkeypatch):
        # Initial genome i comes from (seed, 0, i); offspring slot i of the
        # g-th ask (counted from 1) from (seed, g, i): parent choice, then
        # the mutation.
        seed, real = 7, patterns.substream
        paths = []

        def spy(*path):
            paths.append(path)
            return real(*path)

        monkeypatch.setattr(patterns, "substream", spy)
        cfg = FAST_CFG
        ga = TruncationGA(cfg, seed)
        scores = np.random.default_rng(0).permutation(cfg.population * cfg.generations)
        for g in range(1, cfg.generations + 1):
            paths.clear()
            genomes = ga.ask()
            if g == 1:
                slots = range(cfg.population)
                want = [random_genome(real(seed, 0, i)) for i in slots]
                assert paths == [(seed, 0, i) for i in slots]
            else:
                slots = range(ga.keep, cfg.population)
                want = []
                for i in slots:
                    rng = real(seed, g, i)
                    parent = ga.population[int(rng.integers(0, ga.keep))]
                    want.append(mutate(parent, rng, cfg.weight_std, cfg.act_prob))
                assert paths == [(seed, g, i) for i in slots]
            assert len(genomes) == len(want)
            assert all(same_genome(a, b) for a, b in zip(genomes, want))
            totals, scores = scores[: len(genomes)], scores[len(genomes) :]
            ga.tell(genomes, [PatternFitness(0.0, 0.0, True, float(t)) for t in totals])

    def test_workers_do_not_change_results(self):
        one = evolve_patterns(FAST_CFG, seed=3, workers=1)
        two = evolve_patterns(FAST_CFG, seed=3, workers=2)
        assert one.history == two.history
        assert np.array_equal(synthesize(one.best, 12), synthesize(two.best, 12))

    def test_default_tile_side_follows_kernel(self):
        cfg = PatternEvoConfig(
            grid_side=64, steps=4, stride=2, population=2, generations=1,
            rule=SMALL_RULE,
        )
        res = evolve_patterns(cfg, seed=0)
        assert synthesize(res.best, cfg.resolved_tile_side).shape == (12, 12)  # 4 * radius 3

    @pytest.mark.parametrize("tile_side", [1, 2, -4])
    def test_tile_below_three_is_rejected(self, tile_side):
        with pytest.raises(ValueError, match="tile_side"):
            PatternEvoConfig(grid_side=24, tile_side=tile_side, steps=4,
                             stride=2, population=2, generations=1,
                             rule=SMALL_RULE)

    @pytest.mark.parametrize("tile_side, grid_side", [(0, 10), (30, 24)],
                             ids=["default-4R", "explicit"])
    def test_tile_larger_than_grid_is_rejected(self, tile_side, grid_side):
        with pytest.raises(ValueError, match="tile_side"):
            PatternEvoConfig(grid_side=grid_side, tile_side=tile_side, steps=4,
                             stride=2, population=2, generations=1,
                             rule=SMALL_RULE)

    def test_real_preset_smoke(self):
        cfg = PatternEvoConfig(
            grid_side=64, tile_side=32, steps=16, stride=8,
            population=4, generations=2, rule=load_preset("Orbium"),
        )
        res = evolve_patterns(cfg, seed=11)
        assert len(res.history) == 2
        assert isinstance(res.best_fitness.total, float)
