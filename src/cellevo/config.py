"""Workflow configuration dataclasses with strict dict parsing.

Every field has a default, so a zero-argument construction runs end to
end at desk scale. `from_dict` parses with `rules.from_json`, the parser
rule files use too: an unknown key or a value of the wrong JSON type is
an error that names the field, so config files fail loudly instead of
silently ignoring typos or coercing values. An int passes as a float;
a bool passes as neither. Construction refuses, naming the field, any
setting a run could not use, the cross-field limits included: evolve-ca's
mode, popsize, predictor-mode dataset and kernel fit, and the fit of the
rule's kernel and evolve-pattern's tile in the grid. A `rule` field holds
the whole rule; a file gives it as a preset name or a rule object.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .predictor import check_dataset
from .rules import KernelSpec, RuleParams, check_kernel, from_json, load_preset

# Kernel used when evolving new rules (the wide three-ring neighborhood).
DEFAULT_EVO_KERNEL = KernelSpec(radius=18, ring_weights=(0.5, 1.0, 0.667))
MODES = ("simple", "predictor", "random")
# Preset run by simulate, metrics, evolve-pattern and render's demo mode.
DEFAULT_RULE = "Orbium"


class _FromDict:
    """Strict construction from a parsed JSON object; `section` names it in errors."""

    section = ""

    @classmethod
    def from_dict(cls, data: dict):
        return from_json(cls, data, cls.section)


@dataclass(frozen=True)
class SimulateConfig(_FromDict):
    section = "simulate"

    side: int = 128
    steps: int = 512
    init: str = "patch"  # "patch" (centered noise) or "uniform" (full noise)
    patch_side: int = 0  # 0 = side // 2
    frames_every: int = 0  # write a PGM frame every k steps; 0 = none
    rule: RuleParams = field(default_factory=lambda: load_preset(DEFAULT_RULE))

    def __post_init__(self):
        if self.side < 3:
            raise ValueError("side must be at least 3")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.init not in ("patch", "uniform"):
            raise ValueError(f"unknown init {self.init!r}")
        if not 0 <= self.patch_side <= self.side:
            raise ValueError("patch_side must lie in [0, side]")
        if self.frames_every < 0:
            raise ValueError("frames_every must be nonnegative")
        check_kernel(self.rule.kernel, self.side, "side")


@dataclass(frozen=True)
class HaltingFitnessConfig(_FromDict):
    """One fitness evaluation: dataset generation plus optional training."""

    section = "fitness"

    n_grids: int = 128
    grid_side: int = 64
    horizon: int = 256
    patch_side: int = 0  # 0 = grid_side // 2
    n_predictors: int = 3
    epochs: int = 20
    split: float = 0.75

    def __post_init__(self):
        if self.n_grids < 2:
            raise ValueError("n_grids must be at least 2")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.grid_side < 1:
            raise ValueError("grid_side must be at least 1")
        if not 0 <= self.patch_side <= self.grid_side:
            raise ValueError("patch_side must lie in [0, grid_side]")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.n_predictors < 1:
            raise ValueError("n_predictors must be at least 1")
        if not 0.0 < self.split < 1.0:
            raise ValueError("split must lie strictly between 0 and 1")


@dataclass(frozen=True)
class EvolveCaConfig(_FromDict):
    section = "evolve-ca"

    mode: str = "simple"  # one of MODES
    generations: int = 10
    popsize: int = 0  # 0 = optimizer default (8 for 4 parameters)
    sigma0: float = 0.5
    dt: float = 0.1
    kernel: KernelSpec = DEFAULT_EVO_KERNEL
    fitness: HaltingFitnessConfig = field(default_factory=HaltingFitnessConfig)

    def __post_init__(self):
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if self.popsize < 0:
            raise ValueError("popsize must be nonnegative")
        if not (math.isfinite(self.sigma0) and self.sigma0 > 0):
            raise ValueError("sigma0 must be positive and finite")
        if not 0.0 <= self.dt <= 1.0:
            raise ValueError("dt must lie in [0, 1]")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.mode != "random" and self.popsize == 1:
            raise ValueError(f"popsize 1 is too small for CMA-ES in {self.mode} mode")
        if self.mode == "predictor":
            check_dataset(self.fitness.n_grids, self.fitness.grid_side,
                          self.fitness.split)
        check_kernel(self.kernel, self.fitness.grid_side)

    @classmethod
    def from_dict(cls, data: dict) -> "EvolveCaConfig":
        fitness = data.get("fitness") if isinstance(data, dict) else None
        if isinstance(fitness, dict) and "seed" in fitness:
            raise ValueError("fitness key 'seed' is not allowed: each"
                             " candidate's seed derives from --seed")
        return super().from_dict(data)


@dataclass(frozen=True)
class PatternEvoConfig(_FromDict):
    section = "evolve-pattern"

    grid_side: int = 128
    tile_side: int = 0  # 0 = 4 * kernel radius
    steps: int = 256
    stride: int = 8  # steps between center-of-mass checkpoints
    population: int = 32
    generations: int = 100
    truncation: float = 0.25  # surviving fraction per generation
    weight_std: float = 0.1  # mutation noise on weights/biases
    act_prob: float = 0.05  # per-node activation resample probability
    survival_threshold: float = 0.01
    lambda_homeo: float = 10.0
    rule: RuleParams = field(default_factory=lambda: load_preset(DEFAULT_RULE))

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if not 0.0 < self.truncation <= 0.5:
            raise ValueError("truncation must lie in (0, 0.5]")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if not 1 <= self.stride <= self.steps:
            raise ValueError("stride must lie in [1, steps]")
        if not (math.isfinite(self.weight_std) and self.weight_std >= 0):
            raise ValueError("weight_std must be nonnegative and finite")
        if not 0.0 <= self.act_prob <= 1.0:
            raise ValueError("act_prob must lie in [0, 1]")
        if not math.isfinite(self.survival_threshold):
            raise ValueError("survival_threshold must be finite")
        if not math.isfinite(self.lambda_homeo):
            raise ValueError("lambda_homeo must be finite")
        radius, tile = self.rule.kernel.radius, self.resolved_tile_side
        check_kernel(self.rule.kernel, self.grid_side)
        if tile < 3:
            raise ValueError(f"tile_side {tile} must be at least 3")
        if tile > self.grid_side:
            default = "" if self.tile_side else f" (4 * kernel radius {radius})"
            raise ValueError(
                f"tile_side {tile}{default} does not fit grid_side {self.grid_side}")

    @property
    def resolved_tile_side(self) -> int:
        """`tile_side`, or 4 * the rule's kernel radius when that is 0."""
        return self.tile_side or 4 * self.rule.kernel.radius


@dataclass(frozen=True)
class MetricsConfig(_FromDict):
    section = "metrics"

    n_grids: int = 128
    grid_side: int = 128
    patch_side: int = 32
    box_side: int = 64  # escape box, centered
    window: int = 512  # two consecutive windows of this many steps
    rule: RuleParams = field(default_factory=lambda: load_preset(DEFAULT_RULE))

    def __post_init__(self):
        if self.n_grids < 1:
            raise ValueError("n_grids must be at least 1")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.grid_side < 1:
            raise ValueError("grid_side must be at least 1")
        if not 0 < self.patch_side <= self.grid_side:
            raise ValueError("patch_side must fit the grid")
        if not 0 < self.box_side < self.grid_side:
            raise ValueError("box_side must be strictly inside the grid")
        check_kernel(self.rule.kernel, self.grid_side)


def load_config_file(path) -> dict:
    with open(Path(path)) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data
