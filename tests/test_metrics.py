"""Mortality/fertility ratios over seeded grid batches."""
from dataclasses import replace

import numpy as np
import pytest

from cellevo.config import MetricsConfig
from cellevo.grid import place_centered, substream
from cellevo.metrics import (
    CSV_HEADER,
    ESCAPE_THRESHOLD,
    MetricsReport,
    _outside_max,
    compute_metrics,
)
from cellevo.rules import GrowthBump, KernelSpec, RuleParams, load_preset
from conftest import plain_trajectory, reference_metrics

SMALL_KERNEL = KernelSpec(radius=3, ring_weights=(1.0,))


def lenia(mu, sigma, dt=0.1):
    return RuleParams("t", "lenia", SMALL_KERNEL, dt, growth=GrowthBump(mu, sigma))


ALWAYS_DECAY = lenia(50.0, 0.1)
ALWAYS_GROW = lenia(0.0, 1e9)
TINY = MetricsConfig(n_grids=8, grid_side=32, patch_side=8, box_side=16, window=16)


def escaped(grid, box_side):
    """True if any cell strictly outside the centered box exceeds 0.01."""
    return bool(_outside_max(grid[None], box_side)[0] > ESCAPE_THRESHOLD)


class TestEscaped:
    def test_inside_only(self):
        grid = np.zeros((16, 16))
        grid[6:10, 6:10] = 1.0
        assert not escaped(grid, 8)

    def test_single_outside_cell(self):
        grid = np.zeros((16, 16))
        grid[0, 0] = 0.5
        assert escaped(grid, 8)

    def test_threshold_strict(self):
        grid = np.zeros((16, 16))
        grid[0, 0] = 0.01  # not strictly above the threshold
        assert not escaped(grid, 8)
        grid[0, 0] = 0.011
        assert escaped(grid, 8)

    def test_box_edges(self):
        # Box rows/cols [4, 12) for side 16: boundary cells are inside.
        grid = np.zeros((16, 16))
        grid[4, 4] = 1.0
        assert not escaped(grid, 8)
        grid2 = np.zeros((16, 16))
        grid2[3, 8] = 1.0
        assert escaped(grid2, 8)

    def test_rejects_oversized_box(self):
        with pytest.raises(ValueError, match="inside"):
            MetricsConfig(n_grids=1, grid_side=16, patch_side=4, box_side=16,
                          window=1)

    def test_box_one_short_of_the_grid(self):
        # Box rows/cols [0, 15) for side 16: the strips above and to the
        # left of the box are empty, the other two are one cell thick.
        grid = np.zeros((16, 16))
        grid[:15, :15] = 1.0
        assert not escaped(grid, 15)
        for cell in ((15, 0), (7, 15), (15, 15)):
            hit = grid.copy()
            hit[cell] = 0.5
            assert escaped(hit, 15), cell


class TestComputeMetrics:
    def test_always_decay(self):
        rep = compute_metrics(replace(TINY, rule=ALWAYS_DECAY), seed=0)
        assert rep.mortality == (1.0, 1.0)
        assert rep.fertility == (0.0, 0.0)

    def test_frozen_rule(self):
        rep = compute_metrics(replace(TINY, rule=lenia(0.15, 0.015, dt=0.0)), seed=0)
        assert rep.mortality == (0.0, 0.0)
        assert rep.fertility == (0.0, 0.0)

    def test_always_grow_escapes_every_window(self):
        rep = compute_metrics(replace(TINY, rule=ALWAYS_GROW), seed=0)
        assert rep.mortality == (0.0, 0.0)
        assert rep.fertility == (1.0, 1.0)

    def test_fertility_not_monotone(self):
        # Full-turnover ring wave: lights up, breaches the box, wraps,
        # annihilates. Escape events happen only in window 1.
        rule = RuleParams(
            "ringwave", "glaberish", SMALL_KERNEL, 1.0,
            genesis=GrowthBump(0.2, 0.02), persistence=GrowthBump(9.0, 0.1),
        )
        cfg = MetricsConfig(
            n_grids=8, grid_side=32, patch_side=8, box_side=10, window=64,
            rule=rule,
        )
        rep = compute_metrics(cfg, seed=0)
        assert rep.fertility[0] > 0.0
        assert rep.fertility[1] == 0.0
        assert rep.mortality == (1.0, 1.0)

    def test_mortality_monotone_for_absorbing_presets(self):
        cfg = MetricsConfig(
            n_grids=8, grid_side=64, patch_side=16, box_side=32, window=32
        )
        for name in ("Orbium", "s7", "s613"):
            rule = load_preset(name)
            assert rule.zero_is_absorbing()
            rep = compute_metrics(replace(cfg, rule=rule), seed=1)
            assert rep.mortality[1] >= rep.mortality[0]

    def test_matches_reference_implementation(self, request):
        # lenia(0.2, 0.03, dt=1.0) ends windows with retired grids ahead of
        # live ones (dead/live 0LL00L and 0L0000 at seed 3).
        rules = (lenia(0.3, 0.05), ALWAYS_DECAY, lenia(0.2, 0.02, dt=1.0),
                 lenia(0.2, 0.03, dt=1.0))
        cfg = MetricsConfig(
            n_grids=6, grid_side=32, patch_side=8, box_side=12, window=12
        )
        reps = [compute_metrics(replace(cfg, rule=rule), seed=3) for rule in rules]
        request.getfixturevalue("shift_add")  # the reference convolves exactly
        p = cfg.patch_side
        grids = [place_centered(cfg.grid_side, substream(3, i).random((p, p)))
                 for i in range(cfg.n_grids)]
        for rule, rep in zip(rules, reps):
            states = plain_trajectory(grids, rule, 2 * cfg.window)
            fert, mort = reference_metrics(states, cfg)
            assert rep.fertility == fert
            assert rep.mortality == mort

    def test_deterministic(self):
        a = compute_metrics(replace(TINY, rule=lenia(0.3, 0.05)), seed=7)
        b = compute_metrics(replace(TINY, rule=lenia(0.3, 0.05)), seed=7)
        assert a == b

    def test_fractions_in_range(self):
        rep = compute_metrics(replace(TINY, rule=lenia(0.25, 0.08)), seed=2)
        for v in (*rep.fertility, *rep.mortality):
            assert 0.0 <= v <= 1.0


class TestReportSerde:
    def test_to_dict_and_csv(self):
        rep = MetricsReport(
            rule_name="x", fertility=(0.5, 0.25), mortality=(0.0, 1.0),
            n_grids=8, grid_side=32, window=16, patch_side=8, seed=3,
        )
        d = rep.to_dict()
        assert d["fertility"] == [0.5, 0.25]
        assert rep.csv_row() == "x,0.5,0.25,0.0,1.0,8,32,8,16,3"
        assert CSV_HEADER.count(",") == rep.csv_row().count(",")
