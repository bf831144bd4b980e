"""Round trips and exact bytes for the on-disk formats."""
import json
from importlib import resources

import numpy as np
import pytest

from cellevo.io import (
    grid_to_pgm,
    load_history,
    load_pattern,
    save_history,
    save_metrics,
    save_metrics_csv,
    save_pattern,
    save_rule,
    write_frames,
)
from cellevo.metrics import MetricsReport
from cellevo.rules import (
    GrowthBump,
    KernelSpec,
    RuleParams,
    load_preset,
    preset_names,
    rule_from_dict,
)


def small_rule():
    return RuleParams(
        "tiny", "lenia", KernelSpec(radius=2, ring_weights=(1.0,)), 0.1,
        growth=GrowthBump(0.15, 0.015),
    )


class TestRuleFiles:
    def test_round_trip(self, tmp_path):
        rule = small_rule()
        p = save_rule(rule, tmp_path / "r.json")
        assert rule_from_dict(json.loads(p.read_text())) == rule

    def test_preset_round_trip(self, tmp_path):
        rule = load_preset("s7")
        p = save_rule(rule, tmp_path / "r.json")
        assert rule_from_dict(json.loads(p.read_text())) == rule

    @pytest.mark.parametrize("name", preset_names())
    def test_saved_preset_matches_shipped_file(self, tmp_path, name):
        p = save_rule(load_preset(name), tmp_path / "r.json")
        shipped = resources.files("cellevo") / "presets" / f"{name}.json"
        assert p.read_bytes() == shipped.read_bytes()

    def test_rejects_non_object(self, tmp_path):
        p = tmp_path / "r.json"
        p.write_text("[1, 2]")
        with pytest.raises(ValueError, match="object"):
            rule_from_dict(json.loads(p.read_text()))


class TestHistoryFiles:
    def test_round_trip(self, tmp_path):
        records = [
            {"generation": 1, "best_fitness": -0.5, "mode": "simple"},
            {"generation": 2, "best_fitness": -0.25, "mode": "simple"},
        ]
        p = save_history(records, tmp_path / "h.jsonl")
        assert load_history(p) == records

    def test_one_object_per_line(self, tmp_path):
        p = save_history([{"a": 1}, {"b": 2}], tmp_path / "h.jsonl")
        lines = p.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == {"a": 1}

    def test_empty(self, tmp_path):
        p = save_history([], tmp_path / "h.jsonl")
        assert load_history(p) == []


class TestPatternFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        tile = rng.random((7, 5))
        p = save_pattern(tmp_path / "p.json", name="g", tile=tile, rule=small_rule())
        loaded = load_pattern(p)
        assert loaded.name == "g"
        assert loaded.rule == small_rule()
        assert loaded.tile.shape == (7, 5)
        assert np.array_equal(loaded.tile, tile)  # exact, not approx

    def test_rule_by_preset_name(self, tmp_path):
        tile = np.zeros((3, 3))
        p = save_pattern(tmp_path / "p.json", name="g", tile=tile, rule="Orbium")
        loaded = load_pattern(p)
        assert loaded.rule == load_preset("Orbium")
        assert json.loads(p.read_text())["rule"] == "Orbium"

    def test_unknown_preset_name_fails_on_save(self, tmp_path):
        with pytest.raises(KeyError):
            save_pattern(tmp_path / "p.json", name="g", tile=np.zeros((3, 3)),
                         rule="NoSuchRule")

    def test_rejects_unknown_key(self, tmp_path):
        p = save_pattern(tmp_path / "p.json", name="g", tile=np.zeros((2, 2)),
                         rule=small_rule())
        data = json.loads(p.read_text())
        data["extra"] = 1
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="extra"):
            load_pattern(p)

    def test_rejects_missing_key(self, tmp_path):
        p = save_pattern(tmp_path / "p.json", name="g", tile=np.zeros((2, 2)),
                         rule=small_rule())
        data = json.loads(p.read_text())
        del data["cells"]
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="cells"):
            load_pattern(p)

    def test_rejects_wrong_cell_count(self, tmp_path):
        p = save_pattern(tmp_path / "p.json", name="g", tile=np.zeros((2, 2)),
                         rule=small_rule())
        data = json.loads(p.read_text())
        data["cells"] = data["cells"][:-1]
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="cells"):
            load_pattern(p)

    @pytest.mark.parametrize("height", [2.5, 2.0, True, "2"])
    def test_rejects_height_of_wrong_type(self, tmp_path, height):
        p = save_pattern(tmp_path / "p.json", name="g", tile=np.zeros((2, 1)),
                         rule=small_rule())
        data = json.loads(p.read_text())
        data["height"] = height
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="'height'"):
            load_pattern(p)

    def test_rejects_out_of_range_cells(self, tmp_path):
        p = save_pattern(tmp_path / "p.json", name="g", tile=np.zeros((2, 2)),
                         rule=small_rule())
        data = json.loads(p.read_text())
        data["cells"][0] = 1.5
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            load_pattern(p)

    @pytest.mark.parametrize("tile", [np.full((3, 3), 1.5),
                                      np.full((3, 3), np.nan), np.zeros((0, 3))],
                             ids=["above-1", "nan", "empty"])
    def test_save_refuses_tile_load_would_refuse(self, tmp_path, tile):
        path = tmp_path / "p.json"
        with pytest.raises(ValueError):
            save_pattern(path, name="g", tile=tile, rule=small_rule())
        assert not path.exists()

    def test_cells_are_row_major(self, tmp_path):
        tile = np.array([[0.0, 0.25], [0.5, 1.0]])
        p = save_pattern(tmp_path / "p.json", name="g", tile=tile, rule=small_rule())
        assert json.loads(p.read_text())["cells"] == [0.0, 0.25, 0.5, 1.0]


class TestMetricsFiles:
    REPORT = MetricsReport(
        rule_name="x", fertility=(0.5, 0.25), mortality=(0.0, 1.0),
        n_grids=8, grid_side=32, window=16, patch_side=8, seed=3,
    )

    def test_json(self, tmp_path):
        p = save_metrics(self.REPORT, tmp_path / "m.json")
        data = json.loads(p.read_text())
        assert data["rule_name"] == "x"
        assert data["mortality"] == [0.0, 1.0]

    def test_csv(self, tmp_path):
        p = save_metrics_csv([self.REPORT, self.REPORT], tmp_path / "m.csv")
        lines = p.read_text().splitlines()
        assert lines[0] == "name,fert1,fert2,mort1,mort2,grids,side,patch,window,seed"
        assert len(lines) == 3
        assert lines[1] == lines[2] == self.REPORT.csv_row()


class TestPgm:
    def test_all_zero_2x2_is_15_bytes(self):
        data = grid_to_pgm(np.zeros((2, 2)))
        assert data == b"P5\n2 2\n255\n" + b"\x00" * 4
        assert len(data) == 15

    def test_rounding(self):
        data = grid_to_pgm(np.array([[0.0, 0.5], [1.0, 0.25]]))
        assert data[-4:] == bytes([0, 128, 255, 64])

    def test_header_has_width_then_height(self):
        data = grid_to_pgm(np.zeros((2, 3)))
        assert data.startswith(b"P5\n3 2\n255\n")

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            grid_to_pgm(np.zeros((2, 2, 2)))

    def test_write_frames_names(self, tmp_path):
        grids = [np.zeros((2, 2))] * 3
        paths = write_frames(grids, tmp_path / "frames")
        assert [p.name for p in paths] == [
            "frame_000000.pgm", "frame_000001.pgm", "frame_000002.pgm",
        ]
        assert all(p.read_bytes() == grid_to_pgm(grids[0]) for p in paths)

    def test_write_frames_creates_directory(self, tmp_path):
        target = tmp_path / "a" / "b"
        write_frames([np.zeros((2, 2))], target)
        assert (target / "frame_000000.pgm").exists()
