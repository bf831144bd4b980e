"""File formats: rule JSON, pattern JSON, JSONL histories, metrics, PGM frames.

Everything here is byte-reproducible: floats go through Python's shortest
round-trip repr, PGM output is uncompressed, and no writer embeds timestamps.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .metrics import CSV_HEADER, MetricsReport
from .rules import (
    RuleParams,
    _require_keys,
    json_value,
    load_preset,
    rule_to_dict,
)

_PATTERN_KEYS = {"name", "rule", "height", "width", "cells"}


def write_json(data, path: str | Path) -> Path:
    """Write `data` as indented JSON with a trailing newline."""
    path = Path(path)
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


def save_rule(rule: RuleParams, path: str | Path) -> Path:
    return write_json(rule_to_dict(rule), path)


def save_history(records: Iterable[dict], path: str | Path) -> Path:
    """Write one JSON object per line (evolution runs append one per generation)."""
    path = Path(path)
    with path.open("w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return path


def load_history(path: str | Path) -> list[dict]:
    records = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


@dataclass(frozen=True)
class PatternFile:
    """A stored pattern: tile values plus the rule it was evolved under."""

    name: str
    rule: RuleParams
    tile: np.ndarray


def _check_tile(tile: np.ndarray) -> np.ndarray:
    """The one tile check of save and load: 2-D, nonempty, cells in [0, 1]."""
    if tile.ndim != 2 or tile.size == 0:
        raise ValueError(f"tile must be 2-D and nonempty, got shape {tile.shape}")
    if not np.all(np.isfinite(tile)) or tile.min() < 0.0 or tile.max() > 1.0:
        raise ValueError("pattern cells must be finite and in [0, 1]")
    return tile


def save_pattern(
    path: str | Path,
    *,
    name: str,
    tile: np.ndarray,
    rule: RuleParams | str,
) -> Path:
    """Store a tile with its rule, given as a preset name or a full rule."""
    tile = _check_tile(np.asarray(tile, dtype=np.float64))
    if isinstance(rule, str):
        load_preset(rule)  # fail fast on unknown names
        rule_field: str | dict = rule
    else:
        rule_field = rule_to_dict(rule)
    data = {
        "name": name,
        "rule": rule_field,
        "height": int(tile.shape[0]),
        "width": int(tile.shape[1]),
        "cells": [float(v) for v in tile.ravel()],
    }
    return write_json(data, path)


def load_pattern(path: str | Path) -> PatternFile:
    """Read a pattern file: ValueError if malformed, KeyError for an unknown preset."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    _require_keys(data, _PATTERN_KEYS, _PATTERN_KEYS, "pattern")
    name = json_value(data["name"], str, "name", "pattern")
    height = json_value(data["height"], int, "height", "pattern")
    width = json_value(data["width"], int, "width", "pattern")
    cells = json_value(data["cells"], tuple[float, ...], "cells", "pattern")
    if height < 1 or width < 1:
        raise ValueError("pattern height and width must be positive")
    if len(cells) != height * width:
        raise ValueError(f"expected {height * width} cells, got {len(cells)}")
    tile = _check_tile(np.reshape(cells, (height, width)))
    rule = json_value(data["rule"], RuleParams, "rule", "pattern")
    tile.flags.writeable = False
    return PatternFile(name=name, rule=rule, tile=tile)


def save_metrics(report: MetricsReport, path: str | Path) -> Path:
    return write_json(report.to_dict(), path)


def save_metrics_csv(reports: Sequence[MetricsReport], path: str | Path) -> Path:
    path = Path(path)
    lines = [CSV_HEADER] + [r.csv_row() for r in reports]
    path.write_text("\n".join(lines) + "\n")
    return path


def grid_to_pgm(grid: np.ndarray) -> bytes:
    """Encode one grid as binary PGM; cell -> byte via floor(v*255 + 0.5)."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ValueError(f"expected a 2-D grid, got shape {grid.shape}")
    height, width = grid.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    levels = np.floor(grid * 255.0 + 0.5)
    body = np.clip(levels, 0, 255).astype(np.uint8).tobytes()
    return header + body


def write_frames(grids: Sequence[np.ndarray], directory: str | Path,
                 start: int = 0) -> list[Path]:
    """Write grids as frame_000000.pgm, frame_000001.pgm, ... in directory,
    numbering the first grid `start`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, grid in enumerate(grids, start):
        path = directory / f"frame_{i:06d}.pgm"
        path.write_bytes(grid_to_pgm(grid))
        paths.append(path)
    return paths
