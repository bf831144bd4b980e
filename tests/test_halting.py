"""Halting datasets, both fitness regimes, genome squash, evolution loop."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellevo import predictor
from cellevo.cmaes import CmaEs
from cellevo.config import EvolveCaConfig, HaltingFitnessConfig
from cellevo.grid import seed_path
from cellevo.halting import (
    HALT_THRESHOLD,
    HaltingDataset,
    SIGMA_HI,
    SIGMA_LO,
    balance_fitness,
    evolve_rules,
    generate_dataset,
    genome_to_rule,
    prediction_difficulty,
    predictor_fitness,
    predictor_fitness_from_dataset,
    simple_fitness,
    squash_genome,
    unsquash_genome,
)
from cellevo.rules import GrowthBump, KernelSpec, RuleParams, run

SMALL_KERNEL = KernelSpec(radius=5, ring_weights=(1.0,))


def lenia(mu, sigma, dt=0.1):
    return RuleParams("t", "lenia", SMALL_KERNEL, dt, growth=GrowthBump(mu, sigma))


ALWAYS_DECAY = lenia(50.0, 0.1)
ALWAYS_GROW = lenia(0.0, 1e9)

FAST_FITNESS = HaltingFitnessConfig(
    n_grids=16, grid_side=32, horizon=16, epochs=2, seed=0
)
FAST_EVO = EvolveCaConfig(
    generations=2, kernel=SMALL_KERNEL, fitness=FAST_FITNESS
)


class TestGenerateDataset:
    def test_always_decay_labels_false(self):
        ds = generate_dataset(ALWAYS_DECAY, 8, 32, 16, seed=0)
        assert not ds.labels.any()

    def test_always_grow_labels_true(self):
        ds = generate_dataset(ALWAYS_GROW, 8, 32, 4, seed=0)
        assert ds.labels.all()

    def test_deterministic(self):
        a = generate_dataset(lenia(0.15, 0.015), 6, 32, 8, seed=3)
        b = generate_dataset(lenia(0.15, 0.015), 6, 32, 8, seed=3)
        assert np.array_equal(a.grids, b.grids)
        assert np.array_equal(a.labels, b.labels)

    def test_labels_match_resimulation(self, request):
        rule = lenia(0.3, 0.05)
        ds = generate_dataset(rule, 10, 32, 12, seed=9)
        request.getfixturevalue("shift_add")  # resimulate with the oracle
        for i in (0, 4, 9):
            final = run(ds.grids[i], rule, 12).final
            assert ds.labels[i] == (final.max() > HALT_THRESHOLD)

    def test_labels_match_resimulation_with_retired_grids(self, request):
        rule = lenia(0.25, 0.01)
        ds = generate_dataset(rule, 10, 32, 12, seed=9)
        request.getfixturevalue("shift_add")  # resimulate with the oracle
        peaks = [run(g, rule, 12).final.max() for g in ds.grids]
        # Retired grids come before survivors, so labels cannot be packed.
        assert [i for i, p in enumerate(peaks) if p != 0.0] == [3, 7, 9]
        for i, peak in enumerate(peaks):
            assert ds.labels[i] == (peak > HALT_THRESHOLD)

    def test_patch_occupies_center_half(self):
        ds = generate_dataset(ALWAYS_DECAY, 4, 32, 1, seed=1)
        g = ds.grids[0]
        assert np.all(g[8:24, 8:24] > 0)
        border = g.copy()
        border[8:24, 8:24] = 0
        assert border.max() == 0

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError, match="count"):
            generate_dataset(ALWAYS_DECAY, 1, 32, 4, seed=0)
        with pytest.raises(ValueError, match="horizon"):
            generate_dataset(ALWAYS_DECAY, 4, 32, 0, seed=0)

    def test_grids_read_only(self):
        ds = generate_dataset(ALWAYS_DECAY, 4, 32, 1, seed=0)
        with pytest.raises(ValueError):
            ds.grids[0, 0, 0] = 1.0

    def test_callers_arrays_stay_writeable(self):
        grids = np.zeros((2, 8, 8))
        labels = np.array([True, False])
        ds = HaltingDataset(grids, labels, 1, ALWAYS_DECAY)
        assert grids.flags.writeable and labels.flags.writeable
        assert not ds.grids.flags.writeable and not ds.labels.flags.writeable


class TestSimpleFitness:
    def test_balance_arithmetic(self):
        assert balance_fitness(0.5) == 0.0
        assert balance_fitness(1.0) == -0.25
        assert balance_fitness(0.0) == -0.25
        assert balance_fitness(0.25) == -0.0625

    def test_extremes_score_quarter(self):
        cfg = HaltingFitnessConfig(n_grids=8, grid_side=32, horizon=8, seed=0)
        assert simple_fitness(ALWAYS_DECAY, cfg) == -0.25
        assert simple_fitness(ALWAYS_GROW, cfg) == -0.25

    def test_range(self):
        cfg = HaltingFitnessConfig(n_grids=12, grid_side=32, horizon=8, seed=2)
        f = simple_fitness(lenia(0.3, 0.05), cfg)
        assert -0.25 <= f <= 0.0


class TestPredictorFitness:
    def test_difficulty_arithmetic(self):
        assert prediction_difficulty([1.0, 1.0, 1.0]) == -1.0
        assert prediction_difficulty([0.5, 0.5, 0.5]) == -0.5
        assert prediction_difficulty([0.75, 0.5, 1.0]) == -0.75

    def test_always_decay_is_easy(self):
        # Constant labels: nets learn the bias almost immediately.
        cfg = HaltingFitnessConfig(
            n_grids=16, grid_side=32, horizon=8, epochs=5, seed=4
        )
        f = predictor_fitness(ALWAYS_DECAY, cfg)
        assert f <= -0.9

    @pytest.mark.parametrize("rule", [ALWAYS_DECAY, ALWAYS_GROW],
                             ids=["all_dead", "all_alive"])
    def test_single_class_scores_as_trained_without_training(self, rule,
                                                            monkeypatch):
        cfg = HaltingFitnessConfig(horizon=16)  # default size, epochs, split
        ds = generate_dataset(rule, cfg.n_grids, cfg.grid_side, cfg.horizon, 0)
        assert len(np.unique(ds.labels)) == 1
        trained = prediction_difficulty([
            predictor.train(ds.grids, ds.labels, epochs=cfg.epochs, split=cfg.split,
                            seed=seed_path(cfg.seed, 1 + n)).val_accuracy
            for n in range(cfg.n_predictors)
        ])

        def no_training(*args, **kwargs):
            raise AssertionError("a single-class dataset was trained on")

        monkeypatch.setattr(predictor, "train", no_training)
        assert predictor_fitness_from_dataset(ds, cfg) == trained == -1.0

    def test_bounds(self):
        f = predictor_fitness(lenia(0.3, 0.05), FAST_FITNESS)
        assert -1.0 <= f <= 0.0

    def test_deterministic(self):
        a = predictor_fitness(lenia(0.3, 0.05), FAST_FITNESS)
        b = predictor_fitness(lenia(0.3, 0.05), FAST_FITNESS)
        assert a == b


class TestGenomeSquash:
    def test_zero_maps_to_midpoints(self):
        out = squash_genome(np.zeros(4))
        assert out[0] == 0.5 and out[2] == 0.5
        mid = SIGMA_LO + (SIGMA_HI - SIGMA_LO) / 2
        assert out[1] == pytest.approx(mid, abs=1e-12)

    def test_bounds_respected_at_extremes(self):
        lo = squash_genome(np.full(4, -40.0))
        hi = squash_genome(np.full(4, 40.0))
        assert np.all(lo >= [0.0, SIGMA_LO, 0.0, SIGMA_LO])
        assert np.all(hi <= [1.0, SIGMA_HI, 1.0, SIGMA_HI])

    @settings(max_examples=50, deadline=None)
    @given(raw=st.lists(st.floats(-15, 15), min_size=4, max_size=4))
    def test_round_trip(self, raw):
        # Beyond |raw| ~ 15 the logistic saturates in double precision and
        # the bounded value cannot carry the information back.
        raw = np.array(raw)
        back = unsquash_genome(squash_genome(raw))
        assert np.abs(back - raw).max() < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(-20, 20),
        b=st.floats(-20, 20),
        coord=st.integers(0, 3),
    )
    def test_monotone_per_coordinate(self, a, b, coord):
        lo, hi = sorted((a, b))
        if lo == hi:
            return
        va = np.zeros(4)
        vb = np.zeros(4)
        va[coord] = lo
        vb[coord] = hi
        assert squash_genome(va)[coord] <= squash_genome(vb)[coord]

    def test_unsquash_rejects_out_of_bounds(self):
        with pytest.raises(ValueError, match="bounds"):
            unsquash_genome([0.5, 0.5, 0.5, 0.05])  # sigma 0.5 > 0.3
        with pytest.raises(ValueError, match="bounds"):
            unsquash_genome([1.5, 0.05, 0.5, 0.05])

    def test_genome_to_rule_wiring(self):
        raw = np.array([0.3, -1.0, -0.2, 2.0])
        rule = genome_to_rule(raw, SMALL_KERNEL, 0.1)
        vals = squash_genome(raw)
        assert rule.framework == "glaberish"
        assert rule.genesis.mu == vals[0]
        assert rule.genesis.sigma == vals[1]
        assert rule.persistence.mu == vals[2]
        assert rule.persistence.sigma == vals[3]
        assert rule.dt == 0.1


def quadratic_fitness(raw, eval_seed):
    return -float(raw[0] ** 2)


class TestEvolveRules:
    def test_history_bookkeeping(self):
        calls = []

        def counting(raw, eval_seed):
            calls.append(tuple(eval_seed))
            return -float(raw @ raw)

        cfg = EvolveCaConfig(generations=1, kernel=SMALL_KERNEL)
        res = evolve_rules("simple", cfg, seed=5, fitness_fn=counting)
        assert len(res.history) == 1
        assert res.evaluations == 8
        assert len(calls) == 8
        assert calls == [(5, 1, i) for i in range(8)]
        rec = res.history[0]
        assert set(rec) == {
            "generation", "best_fitness", "mean_fitness", "best_genome",
            "n_nonfinite", "mode", "seed",
        }
        assert rec["generation"] == 1
        assert rec["mode"] == "simple"
        assert rec["seed"] == 5
        assert len(rec["best_genome"]) == 4

    def test_best_so_far_non_decreasing(self):
        cfg = EvolveCaConfig(generations=20, kernel=SMALL_KERNEL)
        res = evolve_rules("simple", cfg, seed=2, fitness_fn=quadratic_fitness)
        running = -np.inf
        for rec in res.history:
            running = max(running, rec["best_fitness"])
        assert res.best_fitness == running

    def test_landscape_oracle_recovers_zero(self):
        cfg = EvolveCaConfig(generations=150, kernel=SMALL_KERNEL, sigma0=1.0)
        res = evolve_rules("simple", cfg, seed=1, fitness_fn=quadratic_fitness)
        assert abs(res.best_raw[0]) < 1e-6

    def test_random_mode_stays_in_bounds(self):
        cfg = EvolveCaConfig(generations=3, kernel=SMALL_KERNEL)
        res = evolve_rules("random", cfg, seed=8, fitness_fn=quadratic_fitness)
        assert res.best_rule.framework == "glaberish"
        for rec in res.history:
            vals = squash_genome(np.array(rec["best_genome"]))
            assert 0.0 < vals[0] < 1.0
            assert SIGMA_LO < vals[1] < SIGMA_HI

    def test_non_finite_fitness_sanitized(self):
        def sometimes_nan(raw, eval_seed):
            return float("nan") if raw[0] > 0 else 0.0

        cfg = EvolveCaConfig(generations=2, kernel=SMALL_KERNEL)
        res = evolve_rules("simple", cfg, seed=3, fitness_fn=sometimes_nan)
        assert np.isfinite(res.best_fitness)

    def test_non_finite_fitness_counted_and_told_as_minus_one(self, monkeypatch):
        returned = {}

        def nan_or_inf(raw, eval_seed):
            value = float("nan") if raw[0] > 0 else -float(raw @ raw)
            value = float("inf") if raw[1] > 1.0 else value
            returned[tuple(eval_seed)] = value
            return value

        told = []
        real_tell = CmaEs.tell

        def spy_tell(es, cands, fits):
            told.append(np.array(fits, dtype=float))
            return real_tell(es, cands, fits)

        monkeypatch.setattr(CmaEs, "tell", spy_tell)
        cfg = EvolveCaConfig(generations=3, kernel=SMALL_KERNEL)
        res = evolve_rules("simple", cfg, seed=3, fitness_fn=nan_or_inf)
        assert len(told) == 3
        for gen, (rec, fits) in enumerate(zip(res.history, told), start=1):
            values = np.array([returned[(3, gen, i)] for i in range(len(fits))])
            bad = ~np.isfinite(values)
            assert rec["n_nonfinite"] == int(bad.sum())
            assert np.all(fits[bad] == -1.0)
            assert np.array_equal(fits[~bad], values[~bad])
        assert sum(rec["n_nonfinite"] for rec in res.history) > 0

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            evolve_rules("gradient", FAST_EVO, seed=0)

    def test_full_run_deterministic(self):
        a = evolve_rules("simple", FAST_EVO, seed=6)
        b = evolve_rules("simple", FAST_EVO, seed=6)
        assert a.history == b.history
        assert np.array_equal(a.best_raw, b.best_raw)

    def test_workers_do_not_change_results(self):
        one = evolve_rules("simple", FAST_EVO, seed=4, workers=1)
        two = evolve_rules("simple", FAST_EVO, seed=4, workers=2)
        assert one.history == two.history

    def test_predictor_workers_do_not_change_bits(self):
        cfg = EvolveCaConfig(
            generations=2, popsize=2, kernel=SMALL_KERNEL,
            fitness=HaltingFitnessConfig(
                n_grids=8, grid_side=32, horizon=4, epochs=1
            ),
        )
        one = evolve_rules("predictor", cfg, seed=9, workers=1)
        two = evolve_rules("predictor", cfg, seed=9, workers=2)
        assert one.history == two.history
        assert one.best_raw.tobytes() == two.best_raw.tobytes()

    def test_random_mode_workers_do_not_change_results(self):
        cfg = EvolveCaConfig(generations=3, popsize=5, kernel=SMALL_KERNEL)
        one = evolve_rules("random", cfg, seed=11, fitness_fn=quadratic_fitness,
                           workers=1)
        two = evolve_rules("random", cfg, seed=11, fitness_fn=quadratic_fitness,
                           workers=2)
        assert one.history == two.history
        assert one.best_raw.tobytes() == two.best_raw.tobytes()
        assert one.best_fitness == two.best_fitness

    @pytest.mark.parametrize("mode", ["simple", "random"])
    def test_constant_landscape_keeps_generation_one_best(self, mode):
        # Every candidate ties, so the best is generation 1's first candidate.
        first = {}

        def constant(raw, eval_seed):
            first.setdefault(tuple(eval_seed), np.array(raw))
            return -0.5

        cfg = EvolveCaConfig(generations=4, kernel=SMALL_KERNEL)
        res = evolve_rules(mode, cfg, seed=7, fitness_fn=constant)
        assert res.best_fitness == -0.5
        assert res.best_raw.tobytes() == first[(7, 1, 0)].tobytes()
        assert res.history[0]["best_genome"] == list(first[(7, 1, 0)])

    def test_simple_real_fitness_end_to_end(self):
        res = evolve_rules("simple", FAST_EVO, seed=7)
        assert -0.25 <= res.best_fitness <= 0.0
        assert res.best_rule.framework == "glaberish"
