"""End-to-end subcommand runs in temp directories."""
import json
import math

import numpy as np
import pytest

from cellevo.cli import main
from cellevo.config import (
    EvolveCaConfig,
    HaltingFitnessConfig,
    MetricsConfig,
    PatternEvoConfig,
    SimulateConfig,
)
from cellevo.grid import place_centered, substream
from cellevo.io import grid_to_pgm, load_pattern, save_pattern
from cellevo.patterns import random_genome, synthesize
from cellevo.rules import load_preset, preset_names, rule_to_dict, step

# Small-but-real invocations; grids must fit the default radius-18 kernel.
EVOLVE_CA = ["evolve-ca", "--mode", "simple", "--generations", "2",
             "--n-grids", "4", "--grid-side", "40", "--horizon", "4"]
EVOLVE_PATTERN = ["evolve-pattern", "--rule", "Orbium", "--generations", "2",
                  "--population", "4", "--steps", "8", "--grid-side", "64",
                  "--tile-side", "16"]
# One small run of each subcommand that takes settings.
EVERY_COMMAND = pytest.mark.parametrize("argv", [
    ["simulate", "--steps", "1", "--side", "32"],
    EVOLVE_CA,
    EVOLVE_PATTERN,
    ["metrics", "--n-grids", "1", "--window", "1"],
    ["render", "--steps", "1", "--grid-side", "64"],
], ids=["simulate", "evolve-ca", "evolve-pattern", "metrics", "render"])


def read_bytes_tree(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestPresets:
    def test_lists_all_names(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == list(preset_names())
        assert len(out) == 10


class TestExitCodes:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["simulate", "--bogus"]) == 1

    def test_unknown_preset(self, capsys):
        assert main(["simulate", "--rule", "NoSuch"]) == 1
        assert "NoSuch" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"not_a_key": 1}')
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "not_a_key" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1

    def test_side_below_kernel_side_is_1(self, tmp_path, capsys):
        # Kernel side 27 cannot fit a 16x16 grid: refused before --out.
        out = tmp_path / "out"
        args = ["simulate", "--rule", "Orbium", "--side", "16", "--steps", "1",
                "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "side 16" in err and "grid_side" not in err
        assert not out.exists()

    def test_kernel_missing_field_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"kernel": {"ring_weights": [1.0]}}')
        assert main([*EVOLVE_CA, "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1
        assert "missing kernel field 'radius'" in capsys.readouterr().err

    def test_patch_larger_than_grid_is_1(self, tmp_path, capsys):
        args = ["simulate", "--side", "16", "--patch-side", "32",
                "--out", str(tmp_path)]
        assert main(args) == 1
        assert "patch_side" in capsys.readouterr().err

    def test_help_is_0(self, capsys):
        assert main(["--help"]) == 0


class TestSimulate:
    def test_zero_steps(self, tmp_path, capsys):
        args = ["simulate", "--rule", "Orbium", "--steps", "0", "--seed", "1",
                "--out", str(tmp_path)]
        assert main(args) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert list(summary) == ["rule", "framework", "side", "steps", "init",
                                 "seed", "final_mean", "final_max", "means",
                                 "maxes"]
        assert summary["steps"] == 0
        assert summary["means"] == []
        assert summary["rule"] == "Orbium"

    def test_summary_lengths(self, tmp_path, capsys):
        args = ["simulate", "--steps", "5", "--side", "32", "--rule-file",
                "UNSET", "--out", str(tmp_path)]
        # use a small custom rule so side 32 fits
        rule_file = tmp_path / "rule.json"
        rule_file.write_text(json.dumps({
            "name": "t", "framework": "lenia", "dt": 0.1,
            "kernel": {"radius": 3, "ring_weights": [1.0],
                       "core": "lenia_shell", "core_param": 4.0},
            "growth": {"mu": 0.15, "sigma": 0.015},
        }))
        args[args.index("UNSET")] = str(rule_file)
        assert main(args) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert len(summary["means"]) == len(summary["maxes"]) == 5

    def test_scaled_ring_weights_run_the_same_rule(self, tmp_path, capsys):
        # Ring weights are relative amplitudes: scaled by 2**1020 their
        # unnormalized sum would overflow, and the run must not change.
        rule = rule_to_dict(load_preset("H_natans"))
        weights = rule["kernel"]["ring_weights"]
        trees = []
        for i, scale in enumerate((1.0, 2.0 ** 1020)):
            rule["kernel"]["ring_weights"] = [b * scale for b in weights]
            path = tmp_path / f"rule_{i}.json"
            path.write_text(json.dumps(rule))
            out = tmp_path / f"out_{i}"
            assert main(["simulate", "--rule-file", str(path), "--side", "40",
                         "--steps", "4", "--frames-every", "2",
                         "--out", str(out)]) == 0
            trees.append(read_bytes_tree(out))
        assert "frames/frame_000002.pgm" in trees[0]
        assert trees[1] == trees[0]

    def test_frames_written(self, tmp_path, capsys):
        args = ["simulate", "--steps", "4", "--side", "64", "--frames-every",
                "2", "--out", str(tmp_path)]
        assert main(args) == 0
        names = sorted(p.name for p in (tmp_path / "frames").iterdir())
        # frame at step 0, 2, 4
        assert names == ["frame_000000.pgm", "frame_000001.pgm",
                         "frame_000002.pgm"]

    def test_config_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"steps": 9, "side": 64}')
        args = ["simulate", "--config", str(cfg), "--steps", "2",
                "--out", str(tmp_path)]
        assert main(args) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["steps"] == 2  # flag wins
        assert summary["side"] == 64  # file beats default 128


class TestEvolveCa:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main([*EVOLVE_CA, "--seed", "7", "--out", str(out)]) == 0
        assert (a / "history.jsonl").read_bytes() == \
               (b / "history.jsonl").read_bytes()
        assert (a / "best_rule.json").read_bytes() == \
               (b / "best_rule.json").read_bytes()
        records = [json.loads(line) for line in
                   (a / "history.jsonl").read_text().splitlines()]
        assert [r["generation"] for r in records] == [1, 2]
        assert all(len(r["best_genome"]) == 4 for r in records)
        assert all(r["mode"] == "simple" for r in records)

    def test_workers_do_not_change_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([*EVOLVE_CA, "--seed", "3", "--out", str(a)]) == 0
        assert main([*EVOLVE_CA, "--seed", "3", "--workers", "2",
                     "--out", str(b)]) == 0
        assert read_bytes_tree(a) == read_bytes_tree(b)

    def test_random_mode(self, tmp_path, capsys):
        args = ["evolve-ca", "--mode", "random", "--generations", "2",
                "--n-grids", "4", "--grid-side", "40", "--horizon", "4",
                "--seed", "5", "--out", str(tmp_path)]
        assert main(args) == 0
        best = json.loads((tmp_path / "best_rule.json").read_text())
        assert best["framework"] == "glaberish"

    @pytest.mark.parametrize("flags, mode", [
        ([], "predictor"), (["--mode", "simple"], "simple")],
        ids=["config-file", "flag-wins"])
    def test_mode_from_config_file(self, tmp_path, flags, mode, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "predictor"}))
        out = tmp_path / "out"
        argv = ["evolve-ca", "--generations", "1", "--popsize", "2",
                "--n-grids", "4", "--grid-side", "64", "--horizon", "2",
                "--epochs", "0", "--config", str(cfg), *flags, "--out", str(out)]
        assert main(argv) == 0
        records = [json.loads(line) for line in
                   (out / "history.jsonl").read_text().splitlines()]
        assert [r["mode"] for r in records] == [mode]
        assert capsys.readouterr().out.startswith(f"{mode}: ")


class TestEvolvePattern:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main([*EVOLVE_PATTERN, "--seed", "2",
                         "--out", str(out)]) == 0
        assert read_bytes_tree(a) == read_bytes_tree(b)
        pattern = load_pattern(a / "best_pattern.json")
        assert pattern.rule.name == "Orbium"
        assert pattern.tile.shape == (16, 16)
        raw = json.loads((a / "best_pattern.json").read_text())
        assert raw["rule"] == "Orbium"  # stored by preset name

    def test_workers_do_not_change_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([*EVOLVE_PATTERN, "--seed", "4", "--out", str(a)]) == 0
        assert main([*EVOLVE_PATTERN, "--seed", "4", "--workers", "2",
                     "--out", str(b)]) == 0
        assert read_bytes_tree(a) == read_bytes_tree(b)


@pytest.mark.parametrize("argv", [EVOLVE_CA, EVOLVE_PATTERN],
                         ids=["evolve-ca", "evolve-pattern"])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_is_usage_error(tmp_path, argv, workers, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--workers", workers, "--out", str(out)]) == 1
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["simulate", "--steps", "1"], {"backend": "fft"}),
        (EVOLVE_CA, {"fitness": {"backend": "fft"}}),
        (EVOLVE_PATTERN, {"backend": "fft"}),
        (["metrics", "--n-grids", "1", "--window", "1"], {"backend": "fft"}),
    ],
    ids=["simulate", "evolve-ca", "evolve-pattern", "metrics"],
)
def test_config_backend_is_validated(tmp_path, argv, config, capsys):
    """A backend key left in an old config file is an unknown key."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
    assert "field 'backend'" in capsys.readouterr().err
    assert not out.exists()


@EVERY_COMMAND
def test_backend_flag_is_unknown(tmp_path, argv, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--backend", "fft", "--out", str(out)]) == 1
    assert "--backend" in capsys.readouterr().err
    assert not out.exists()


class TestPredictorGridSide:
    ARGS = ["evolve-ca", "--generations", "1", "--popsize", "2", "--n-grids", "4",
            "--grid-side", "48", "--horizon", "2", "--epochs", "1"]

    def test_predictor_mode_rejects_side_not_multiple_of_32(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*self.ARGS, "--mode", "predictor", "--out", str(out)]) == 1
        assert "grid_side 48" in capsys.readouterr().err
        assert not out.exists()

    def test_simple_mode_accepts_side_48(self, tmp_path, capsys):
        assert main([*self.ARGS, "--mode", "simple", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "best_rule.json").exists()


class TestMetrics:
    ARGS = ["metrics", "--rule", "Orbium", "--n-grids", "4", "--grid-side",
            "32", "--patch-side", "8", "--box-side", "16", "--window", "4"]

    def test_outputs(self, tmp_path, capsys):
        assert main([*self.ARGS, "--seed", "1", "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "metrics.json").read_text())
        assert data["rule_name"] == "Orbium"
        csv = (tmp_path / "metrics.csv").read_text().splitlines()
        assert csv[0].startswith("name,")
        assert csv[1].startswith("Orbium,")
        out = capsys.readouterr().out
        assert "Orbium," in out

    def test_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main([*self.ARGS, "--seed", "1", "--out", str(out)]) == 0
        assert read_bytes_tree(a) == read_bytes_tree(b)


class TestRender:
    def test_render_pattern_file(self, tmp_path, capsys):
        evo = tmp_path / "evo"
        assert main([*EVOLVE_PATTERN, "--seed", "2", "--out", str(evo)]) == 0
        out = tmp_path / "frames_out"
        args = ["render", "--pattern", str(evo / "best_pattern.json"),
                "--steps", "4", "--every", "2", "--grid-side", "64",
                "--out", str(out)]
        assert main(args) == 0
        names = sorted(p.name for p in (out / "frames").iterdir())
        assert names == ["frame_000000.pgm", "frame_000001.pgm",
                         "frame_000002.pgm"]

    def test_demo_mode_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["render", "--steps", "2", "--every", "1",
                         "--seed", "9", "--out", str(out)]) == 0
        assert read_bytes_tree(a) == read_bytes_tree(b)

    @pytest.mark.parametrize("every", ["0", "-3"])
    def test_non_positive_every_is_usage_error(self, tmp_path, every, capsys):
        args = ["render", "--steps", "2", "--grid-side", "64", "--every", every,
                "--out", str(tmp_path)]
        assert main(args) == 1
        assert "--every" in capsys.readouterr().err
        assert not (tmp_path / "frames").exists()

    def test_tile_too_big_is_usage_error(self, tmp_path, capsys):
        evo = tmp_path / "evo"
        assert main([*EVOLVE_PATTERN, "--seed", "2", "--out", str(evo)]) == 0
        args = ["render", "--pattern", str(evo / "best_pattern.json"),
                "--grid-side", "8", "--steps", "1", "--out", str(tmp_path)]
        assert main(args) == 1


class _Stop(Exception):
    """Raised after the config is built, so a test can inspect it without a run."""


def _capture_config(monkeypatch, cls):
    built = []
    original = cls.from_dict.__func__

    def from_dict(klass, data):
        built.append(original(klass, data))
        raise _Stop

    monkeypatch.setattr(cls, "from_dict", classmethod(from_dict))
    return built


def step_loop_frames(state, rule, steps, every):
    """PGM bytes of a plain `step` loop at steps 0, k, 2k, ... and the last."""
    frames = [grid_to_pgm(state)]
    for t in range(1, steps + 1):
        state = step(state, rule)
        if t % every == 0 or t == steps:
            frames.append(grid_to_pgm(state))
    return frames


def frame_bytes(directory):
    paths = sorted(directory.iterdir())
    assert [p.name for p in paths] == [f"frame_{i:06d}.pgm"
                                       for i in range(len(paths))]
    return [p.read_bytes() for p in paths]


class TestStreamedFrames:
    """Frames written as they are produced equal those of a plain step loop."""

    @pytest.mark.parametrize("steps, every", [(7, 3), (6, 2), (1, 4)])
    def test_simulate(self, tmp_path, steps, every, capsys):
        argv = ["simulate", "--side", "64", "--init", "uniform", "--seed", "5",
                "--steps", str(steps), "--frames-every", str(every),
                "--out", str(tmp_path)]
        assert main(argv) == 0
        state = substream(5, 0).random((64, 64))
        assert frame_bytes(tmp_path / "frames") == step_loop_frames(
            state, load_preset("Orbium"), steps, every)

    @pytest.mark.parametrize("flags, patch", [
        ([], 32), (["--patch-side", "10"], 10), (["--patch-side", "64"], 64)],
        ids=["half-side", "patch-side-10", "patch-side-64"])
    def test_simulate_patch_is_grid_0_of_a_seeded_batch(self, tmp_path, flags,
                                                        patch, capsys):
        # p x p cells from stream (seed, 0), centered; p = side // 2 if unset.
        # At p = 64 this is test_simulate's --init uniform grid.
        argv = ["simulate", "--side", "64", "--init", "patch", "--seed", "5",
                "--steps", "2", "--frames-every", "1", *flags,
                "--out", str(tmp_path)]
        assert main(argv) == 0
        state = place_centered(64, substream(5, 0).random((patch, patch)))
        assert frame_bytes(tmp_path / "frames") == step_loop_frames(
            state, load_preset("Orbium"), 2, 1)

    def test_simulate_zero_steps_writes_no_frames(self, tmp_path, capsys):
        argv = ["simulate", "--side", "64", "--steps", "0", "--frames-every",
                "2", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert not (tmp_path / "frames").exists()

    @pytest.mark.parametrize("steps, every", [(7, 3), (0, 4)])
    def test_render_demo(self, tmp_path, steps, every, capsys):
        argv = ["render", "--grid-side", "64", "--seed", "3", "--steps",
                str(steps), "--every", str(every), "--out", str(tmp_path)]
        assert main(argv) == 0
        rule = load_preset("Orbium")
        tile = synthesize(random_genome(substream(3, 0)), 4 * rule.kernel.radius)
        frames = step_loop_frames(place_centered(64, tile), rule, steps, every)
        assert frame_bytes(tmp_path / "frames") == frames
        assert f"{len(frames)} frames" in capsys.readouterr().out


class TestConfigFlags:
    """Each config-backed flag sets the config field of the same name."""

    CASES = [
        ("simulate", SimulateConfig,
         ["--side", "64", "--steps", "3", "--init", "uniform",
          "--patch-side", "8", "--frames-every", "2"],
         dict(side=64, steps=3, init="uniform", patch_side=8, frames_every=2)),
        ("evolve-ca", EvolveCaConfig,
         ["--mode", "random", "--generations", "3", "--popsize", "4",
          "--sigma0", "0.25", "--dt", "0.2", "--n-grids", "6",
          "--grid-side", "40", "--horizon", "5", "--epochs", "2"],
         dict(mode="random", generations=3, popsize=4, sigma0=0.25, dt=0.2)),
        ("evolve-pattern", PatternEvoConfig,
         ["--grid-side", "64", "--tile-side", "16", "--steps", "8",
          "--population", "4", "--generations", "2"],
         dict(grid_side=64, tile_side=16, steps=8, population=4,
              generations=2)),
        ("metrics", MetricsConfig,
         ["--n-grids", "4", "--grid-side", "32", "--patch-side", "8",
          "--box-side", "16", "--window", "4"],
         dict(n_grids=4, grid_side=32, patch_side=8, box_side=16, window=4)),
    ]
    FITNESS = dict(n_grids=6, grid_side=40, horizon=5, epochs=2)

    @pytest.mark.parametrize("command, cls, flags, expected", CASES,
                             ids=[c[0] for c in CASES])
    def test_flag_sets_field(self, tmp_path, monkeypatch, command, cls, flags,
                             expected, capsys):
        built = _capture_config(monkeypatch, cls)
        out = tmp_path / "out"
        assert main([command, *flags, "--out", str(out)]) == 2
        cfg = built[0]
        for name, value in expected.items():
            assert getattr(cfg, name) == value, name
            assert value != getattr(cls(), name), name
        if cls is EvolveCaConfig:
            for name, value in self.FITNESS.items():
                assert getattr(cfg.fitness, name) == value, name
                assert value != getattr(HaltingFitnessConfig(), name), name

    def test_fitness_flags_merge_into_config_section(self, tmp_path,
                                                     monkeypatch, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"generations": 4, "fitness": {
            "n_predictors": 2, "split": 0.5, "horizon": 9, "epochs": 7}}))
        built = _capture_config(monkeypatch, EvolveCaConfig)
        argv = ["evolve-ca", "--config", str(cfg_file), "--horizon", "5",
                "--grid-side", "96", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        cfg = built[0]
        assert cfg.generations == 4
        assert (cfg.fitness.horizon, cfg.fitness.grid_side) == (5, 96)
        assert (cfg.fitness.n_predictors, cfg.fitness.split) == (2, 0.5)
        assert cfg.fitness.epochs == 7
        assert cfg.fitness.n_grids == HaltingFitnessConfig().n_grids

    @pytest.mark.parametrize("flag", ["--init", "--backend"])
    def test_bad_choice_is_usage_error(self, tmp_path, flag, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--steps", "1", flag, "bogus",
                     "--out", str(out)]) == 1
        assert "bogus" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("sizes", [["--grid-side", "32"],
                                   ["--grid-side", "64", "--tile-side", "80"]],
                         ids=["default-4R", "explicit"])
def test_tile_larger_than_grid_is_usage_error(tmp_path, sizes, capsys):
    out = tmp_path / "out"
    argv = ["evolve-pattern", "--rule", "Orbium", "--steps", "8", *sizes,
            "--out", str(out)]
    assert main(argv) == 1
    assert "tile_side" in capsys.readouterr().err
    assert not out.exists()


def test_fitness_seed_in_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fitness": {"seed": 5}}))
    out = tmp_path / "out"
    assert main([*EVOLVE_CA, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "'seed'" in err and "--seed" in err
    assert not out.exists()


@pytest.mark.parametrize("section", [3, [1], "ab", None])
@pytest.mark.parametrize("flags", [[], ["--horizon", "3"]])
def test_fitness_section_not_an_object_is_usage_error(
    tmp_path, capsys, section, flags
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fitness": section}))
    out = tmp_path / "out"
    argv = [*EVOLVE_CA, *flags, "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 1
    assert "fitness must be an object" in capsys.readouterr().err
    assert not out.exists()


PREDICTOR = ["--mode", "predictor", "--grid-side", "32"]


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--sigma0", "0"], "sigma0"),
        (["--sigma0", "-1"], "sigma0"),
        (["--sigma0", "nan"], "sigma0"),
        (["--sigma0", "inf"], "sigma0"),
        (["--dt", "2"], "dt"),
        (["--dt", "-0.1"], "dt"),
        (["--dt", "nan"], "dt"),
        (["--popsize", "1"], "popsize"),
        ([*PREDICTOR, "--popsize", "1"], "popsize"),
        ([*PREDICTOR, "--n-grids", "3"], "n_grids"),
    ],
    ids=["sigma0=0", "sigma0=-1", "sigma0=nan", "sigma0=inf", "dt=2",
         "dt=-0.1", "dt=nan", "simple-popsize=1", "predictor-popsize=1",
         "predictor-n_grids=3"],
)
def test_evolve_ca_setting_is_usage_error(tmp_path, flags, field, capsys):
    out = tmp_path / "out"
    assert main([*EVOLVE_CA, *flags, "--out", str(out)]) == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    [*EVOLVE_CA, "--grid-side", "-2"],
    [*EVOLVE_CA, "--grid-side", "0"],
    ["metrics", "--grid-side", "-2"],
    ["metrics", "--grid-side", "0"],
], ids=["evolve-ca=-2", "evolve-ca=0", "metrics=-2", "metrics=0"])
def test_non_positive_grid_side_is_named(tmp_path, argv, capsys):
    # Checked before patch_side, whose range depends on it.
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("cellevo: error: grid_side")
    assert not out.exists()


def test_predictor_split_leaving_an_empty_set_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fitness": {"split": 0.1}}))
    out = tmp_path / "out"
    argv = [*EVOLVE_CA, *PREDICTOR, "--n-grids", "5", "--config", str(cfg),
            "--out", str(out)]
    assert main(argv) == 1
    assert "split 0.1" in capsys.readouterr().err
    assert not out.exists()


def test_random_mode_accepts_popsize_1(tmp_path, capsys):
    argv = [*EVOLVE_CA, "--mode", "random", "--popsize", "1",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    history = (tmp_path / "history.jsonl").read_text().splitlines()
    assert len(history) == 2


def test_unknown_mode_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*EVOLVE_CA, "--mode", "bogus", "--out", str(out)]) == 1
    assert "mode 'bogus'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tile_side", ["1", "2"])
def test_tile_below_three_is_usage_error(tmp_path, tile_side, capsys):
    out = tmp_path / "out"
    argv = [*EVOLVE_PATTERN, "--tile-side", tile_side, "--out", str(out)]
    assert main(argv) == 1
    assert "tile_side" in capsys.readouterr().err
    assert not out.exists()


def test_render_negative_steps_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["render", "--steps", "-1", "--grid-side", "64", "--out", str(out)]
    assert main(argv) == 1
    assert "--steps" in capsys.readouterr().err
    assert not out.exists()


def _orbium_rule_with(change):
    rule = rule_to_dict(load_preset("Orbium"))
    change(rule)
    return rule


@pytest.mark.parametrize(
    "option, data, field",
    [
        ("--config", {"sigma0": "0.5"}, "sigma0"),
        ("--config", {"popsize": 2.0}, "popsize"),
        ("--config", {"generations": True}, "generations"),
        ("--config", {"fitness": {"n_grids": "8"}}, "n_grids"),
        ("--config", {"kernel": {"radius": 2.7, "ring_weights": [1.0]}},
         "radius"),
        ("--rule-file", _orbium_rule_with(lambda r: r.update(dt=[0.1])), "dt"),
        ("--rule-file",
         _orbium_rule_with(lambda r: r["kernel"].update(ring_weights=5)),
         "ring_weights"),
        ("--rule-file", _orbium_rule_with(
            lambda r: r.update(growth={"mu": "0.15", "sigma": "0.015"},
                               dt="0.1")), "mu"),
    ],
    ids=["sigma0-str", "popsize-float", "generations-bool", "n_grids-str",
         "radius-float", "dt-list", "ring_weights-number", "string-numbers"],
)
def test_value_of_wrong_json_type_is_usage_error(tmp_path, option, data, field,
                                                 capsys):
    path = tmp_path / "in.json"
    out = tmp_path / "out"
    if option == "--config":
        # The small settings live in the file too: a flag would override
        # the bad value, and a value let through must not start a long run.
        fitness = {"n_grids": 4, "grid_side": 40, "horizon": 2,
                   **data.get("fitness", {})}
        path.write_text(json.dumps(
            {"generations": 1, "popsize": 2, **data, "fitness": fitness}))
        argv = ["evolve-ca", "--mode", "simple"]
    else:
        path.write_text(json.dumps(data))
        argv = ["simulate", "--steps", "1", "--side", "32"]
    assert main([*argv, option, str(path), "--out", str(out)]) == 1
    assert f"{field!r}" in capsys.readouterr().err
    assert not out.exists()


BIG = 10 ** 400  # an exact JSON integer beyond the range of a float


@pytest.mark.parametrize("argv, data, named", [
    ([*EVOLVE_CA, "--config"], {"sigma0": BIG},
     "'sigma0' is too large for a float"),
    ([*EVOLVE_CA, "--config"], {"fitness": {"split": BIG}},
     "'split' is too large for a float"),
    (["simulate", "--steps", "1", "--rule-file"],
     _orbium_rule_with(lambda r: r["growth"].update(mu=BIG)),
     "'mu' is too large for a float"),
    (["render", "--steps", "1", "--pattern"],
     {"name": "g", "rule": "Orbium", "height": 1, "width": 2,
      "cells": [BIG, 0]}, "'cells' is too large for a float"),
    ([*EVOLVE_CA, "--config"], {"kernel": {"radius": 1, "ring_weights": [1.0]}},
     "radius 1 with core 'lenia_shell' and core_param 4.0"),
    (["metrics", "--n-grids", "1", "--window", "1", "--rule-file"],
     _orbium_rule_with(lambda r: r["kernel"].update(core="gaussian_ring",
                                                    core_param=1e-06)),
     "radius 13 with core 'gaussian_ring' and core_param 1e-06"),
    # A stencil of side 2000001 would take 32 TB, so the fit check comes first.
    ([*EVOLVE_CA, "--config"],
     {"kernel": {"radius": 10 ** 6, "ring_weights": [1.0]}},
     "kernel side 2000001 does not fit grid_side 40"),
    (["simulate", "--steps", "1", "--rule-file"],
     _orbium_rule_with(lambda r: r["kernel"].update(radius=10 ** 6)),
     "kernel side 2000001 does not fit side 128"),
], ids=["big-config", "big-config-section", "big-rule-file", "big-pattern",
        "zero-kernel-config", "zero-kernel-rule-file", "huge-kernel-config",
        "huge-kernel-rule-file"])
def test_unusable_number_in_input_file_is_usage_error(tmp_path, argv, data,
                                                      named, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main([*argv, str(path), "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_evolve_ca_grid_smaller_than_kernel_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    argv = [*EVOLVE_CA, "--grid-side", "20", "--out", str(out)]
    assert main(argv) == 1
    assert "grid_side 20" in capsys.readouterr().err
    assert not out.exists()


HUGE = 10 ** 8  # one float64 grid of this side takes 80 PB


@pytest.mark.parametrize("argv, config, named", [
    (["simulate", "--side", str(HUGE)], None, f"side {HUGE}"),
    (["simulate"], {"side": 10 ** 30}, f"side {10 ** 30}"),
    ([*EVOLVE_CA, "--grid-side", str(HUGE)], None, f"grid_side {HUGE}"),
    (["metrics", "--patch-side", "8", "--box-side", "16", "--grid-side",
      str(HUGE)], None, f"grid_side {HUGE}"),
    (["evolve-pattern", "--grid-side", str(HUGE)], None, f"grid_side {HUGE}"),
    (["render", "--grid-side", str(HUGE)], None, f"grid_side {HUGE}"),
], ids=["simulate", "simulate-config", "evolve-ca", "metrics",
        "evolve-pattern", "render"])
def test_grid_beyond_physical_memory_is_usage_error(tmp_path, argv, config,
                                                    named, capsys):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cellevo: error: {named} needs"), err
    assert "physical memory" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["metrics", "--rule", "Orbium", "--grid-side", "16", "--patch-side", "4",
     "--box-side", "8", "--n-grids", "1", "--window", "1"],
    ["evolve-pattern", "--rule", "Orbium", "--grid-side", "20", "--tile-side",
     "8", "--generations", "1", "--population", "2", "--steps", "8"],
], ids=["metrics", "evolve-pattern"])
def test_grid_smaller_than_rule_kernel_is_usage_error(tmp_path, argv, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert "grid_side" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, named",
    [("height", 2.5, "'height'"), ("width", "1", "'width'"),
     ("name", 7, "'name'"), ("cells", ["0", "0"], "'cells'"),
     ("rule", "NoSuchRule", "NoSuchRule")],
)
def test_render_bad_pattern_file_is_usage_error(tmp_path, key, value, named,
                                                capsys):
    path = save_pattern(tmp_path / "p.json", name="g", tile=np.zeros((2, 1)),
                        rule="Orbium")
    data = json.loads(path.read_text())
    data[key] = value
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    argv = ["render", "--pattern", str(path), "--steps", "1",
            "--grid-side", "64", "--out", str(out)]
    assert main(argv) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["simulate", "--steps", "1", "--rule-file"],
                                  ["render", "--steps", "1", "--pattern"]],
                         ids=["rule-file", "pattern"])
def test_missing_input_file_is_usage_error(tmp_path, argv, capsys):
    out = tmp_path / "out"
    assert main([*argv, str(tmp_path / "nope.json"), "--out", str(out)]) == 1
    assert "nope.json" in capsys.readouterr().err
    assert not out.exists()


def test_render_grid_smaller_than_pattern_kernel_is_usage_error(tmp_path,
                                                                capsys):
    path = save_pattern(tmp_path / "p.json", name="g", tile=np.ones((2, 2)),
                        rule="Orbium")
    argv = ["render", "--pattern", str(path), "--grid-side", "8", "--steps",
            "1", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "grid_side 8" in capsys.readouterr().err
    assert not (tmp_path / "frames").exists()


@EVERY_COMMAND
def test_negative_seed_is_usage_error(tmp_path, argv, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--seed", "-1", "--out", str(out)]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, config, field", [
    ([*EVOLVE_CA, "--grid-side", "64"], {"fitness": {"patch_side": 100}},
     "patch_side"),
    (EVOLVE_CA, {"fitness": {"patch_side": -3}}, "patch_side"),
    (EVOLVE_CA, {"fitness": {"epochs": -1}}, "epochs"),
    (EVOLVE_PATTERN, {"weight_std": -1.0}, "weight_std"),
    (EVOLVE_PATTERN, {"act_prob": 2.0}, "act_prob"),
    (EVOLVE_PATTERN, {"lambda_homeo": math.nan}, "lambda_homeo"),
    (EVOLVE_PATTERN, {"lambda_homeo": math.inf}, "lambda_homeo"),
    (EVOLVE_PATTERN, {"survival_threshold": math.nan}, "survival_threshold"),
    (EVOLVE_PATTERN, {"survival_threshold": -math.inf}, "survival_threshold"),
], ids=["patch_side-above-grid", "patch_side-negative", "epochs", "weight_std",
        "act_prob", "lambda_homeo-nan", "lambda_homeo-inf",
        "survival_threshold-nan", "survival_threshold-inf"])
def test_config_only_field_out_of_range_is_usage_error(tmp_path, argv, config,
                                                       field, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


S613_NARROW_PERSISTENCE = rule_to_dict(load_preset("s613"))
S613_NARROW_PERSISTENCE["persistence"]["sigma"] = 1e-200


# Rule files whose growth or kernel profile overflows a float64 on the way
# to an exact result: the exponent is floored at -50, and a kernel whose
# weights all underflow to 0 is refused.
@pytest.mark.parametrize("data", [
    _orbium_rule_with(lambda r: r["growth"].update(sigma=5e-324)),
    S613_NARROW_PERSISTENCE,
    _orbium_rule_with(lambda r: r["growth"].update(mu=1e308, sigma=1e-300)),
], ids=["orbium-sigma-5e-324", "s613-persistence-sigma-1e-200",
        "mu-1e308-sigma-1e-300"])
def test_overflowing_growth_runs_quietly(tmp_path, data, capsys):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    argv = ["simulate", "--rule-file", str(path), "--side", "64", "--steps", "3",
            "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert (out / "summary.json").exists()


def test_overflowing_kernel_profile_is_one_usage_error(tmp_path, capsys):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(
        _orbium_rule_with(lambda r: r["kernel"].update(core_param=1e308))))
    out = tmp_path / "out"
    assert main(["simulate", "--rule-file", str(path), "--steps", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cellevo: error: kernel weights sum to 0 ")
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert not out.exists()


class TestRuleRoutes:
    """--rule, --rule-file and the config file's `rule` key set one field."""

    ARGS = ["evolve-pattern", "--generations", "1", "--population", "2",
            "--steps", "8", "--grid-side", "64", "--tile-side", "8"]

    def stored_rule(self, tmp_path, *argv, config=None):
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = [*argv, "--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "out"
        assert main([*self.ARGS, *argv, "--out", str(out)]) == 0
        return json.loads((out / "best_pattern.json").read_text())["rule"]

    def rule_file(self, tmp_path, data):
        path = tmp_path / "rule.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("argv, config", [(["--rule", "s613"], None),
                                              ([], {"rule": "s613"})],
                             ids=["flag", "config"])
    def test_preset_is_stored_by_name(self, tmp_path, argv, config, capsys):
        assert self.stored_rule(tmp_path, *argv, config=config) == "s613"

    def test_rule_file_equal_to_a_preset_is_stored_in_full(self, tmp_path,
                                                            capsys):
        data = rule_to_dict(load_preset("s613"))
        path = self.rule_file(tmp_path, data)
        assert self.stored_rule(tmp_path, "--rule-file", path) == data

    @pytest.mark.parametrize("flag", ["--rule", "--rule-file"])
    def test_flag_wins_over_config(self, tmp_path, flag, capsys):
        data = _orbium_rule_with(lambda r: r.update(name="mine"))
        value = "Orbium" if flag == "--rule" else self.rule_file(tmp_path, data)
        stored = self.stored_rule(tmp_path, flag, value, config={"rule": "s613"})
        assert stored == ("Orbium" if flag == "--rule" else data)


@pytest.mark.parametrize("argv, config, named", [
    (["metrics", "--n-grids", "1", "--window", "1"], {"rule": "nope"},
     "unknown preset 'nope'"),
    (["metrics", "--n-grids", "1", "--window", "1"], {"rule": 3},
     "rule must be an object"),
    (["simulate", "--steps", "1"], {"rule": "Orbium", "side": 20},
     "does not fit side 20"),
], ids=["unknown-preset", "not-a-rule", "kernel-does-not-fit"])
def test_bad_rule_in_config_is_usage_error(tmp_path, argv, config, named,
                                           capsys):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [*argv, "--config", str(tmp_path / "cfg.json"), "--out", str(out)]
    assert main(argv) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()
