"""Population statistics for a rule: how often grids die or break out.

A batch of grids starts as centered noise patches and runs for two
consecutive windows of L steps. Per window:

* mortality — fraction of grids fully quiescent at the window's END
  (a state-at-instant measure, so it can only grow across windows for
  rules whose empty state is absorbing);
* fertility — fraction of grids where anything crossed outside the
  centered escape box at ANY step within the window (an event measure,
  so window 2 can be smaller than window 1).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .config import MetricsConfig
from .grid import seeded_patches
from .halting import HALT_THRESHOLD
from .rules import RuleParams, trajectory

ESCAPE_THRESHOLD = 0.01


def _outside_max(states: np.ndarray, box_side: int) -> np.ndarray:
    """Max cell value strictly outside the centered box, per grid."""
    h, w = states.shape[-2:]
    r0 = (h - box_side) // 2
    c0 = (w - box_side) // 2
    r1, c1 = r0 + box_side, c0 + box_side
    strips = (
        states[..., :r0, :],
        states[..., r1:, :],
        states[..., r0:r1, :c0],
        states[..., r0:r1, c1:],
    )
    out = np.full(states.shape[:-2], -np.inf)
    for strip in strips:
        out = np.maximum(out, strip.max(axis=(-2, -1), initial=-np.inf))
    return out


@dataclass(frozen=True)
class MetricsReport:
    rule_name: str
    fertility: tuple[float, float]
    mortality: tuple[float, float]
    n_grids: int
    grid_side: int
    window: int
    patch_side: int
    seed: int

    def to_dict(self) -> dict:
        """The fields in order, each (window 1, window 2) pair as a list."""
        pairs = asdict(self).items()
        return {k: list(v) if isinstance(v, tuple) else v for k, v in pairs}

    def csv_row(self) -> str:
        f1, f2 = self.fertility
        m1, m2 = self.mortality
        return (
            f"{self.rule_name},{f1},{f2},{m1},{m2},{self.n_grids},"
            f"{self.grid_side},{self.patch_side},{self.window},{self.seed}"
        )


CSV_HEADER = "name,fert1,fert2,mort1,mort2,grids,side,patch,window,seed"


def compute_metrics(rule: RuleParams, cfg: MetricsConfig, seed: int) -> MetricsReport:
    """Run n_grids seeded noise patches for two windows and tally the ratios.

    Grid i draws from the (seed, i) stream. Exactly-dead grids are
    retired from the simulation once the empty state is absorbing; they
    count as quiescent and can no longer produce escape events.
    """
    n = cfg.n_grids
    side = cfg.grid_side
    work = seeded_patches(n, side, cfg.patch_side, seed)

    fertility = []
    mortality = []
    escaped_now = np.zeros(n, dtype=bool)
    for t, active, work in trajectory(work, rule, 2 * cfg.window):
        escaped_now[active] |= _outside_max(work, cfg.box_side) > ESCAPE_THRESHOLD
        if t % cfg.window == 0:
            quiescent = np.ones(n, dtype=bool)  # retired grids are exactly zero
            quiescent[active] = work.max(axis=(-2, -1)) <= HALT_THRESHOLD
            fertility.append(float(escaped_now.mean()))
            mortality.append(float(quiescent.mean()))
            escaped_now[:] = False

    return MetricsReport(
        rule_name=rule.name,
        fertility=(fertility[0], fertility[1]),
        mortality=(mortality[0], mortality[1]),
        n_grids=n,
        grid_side=side,
        window=cfg.window,
        patch_side=cfg.patch_side,
        seed=seed,
    )
