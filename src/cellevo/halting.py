"""Evolving update rules for halting balance and halting unpredictability.

A candidate rule is scored by simulating a batch of random initial
grids to a horizon and asking either

* simple:    how close is the fraction of still-active grids to 1/2?
* predictor: how badly do freshly trained classifiers predict, from the
  initial grid alone, whether it will still be active? (negated mean
  validation accuracy — harder to predict scores higher)

Both scorers are f(rule, cfg, seed), like `metrics.compute_metrics`: the
dataset is `generate_dataset(rule, cfg, (seed, 0))`, whose grid j comes
from the (seed, 0, j) stream, and CNN n trains from (seed, 1 + n).

Candidates are 4-vectors in unbounded space, squashed to (genesis mu,
genesis sigma, persistence mu, persistence sigma) bounds. `evolve_rules`
optimizes them with CMA-ES, or samples them uniformly as the random
baseline, as `cfg.mode` says.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import predictor as pred
from .cmaes import CmaEs, default_popsize
from .config import EvolveCaConfig, HaltingFitnessConfig
from .grid import seed_path, seeded_patches, substream
from .parallel import SearchResult, run_search
from .rules import GLABERISH, GrowthBump, KernelSpec, RuleParams, trajectory

HALT_THRESHOLD = 1e-6
SIGMA_LO = 0.001
SIGMA_HI = 0.3
GENOME_DIM = 4


@dataclass(frozen=True)
class HaltingDataset:
    """Initial grids plus the ground truth "still active at horizon?" labels."""

    grids: np.ndarray  # (M, side, side) initial states
    labels: np.ndarray  # (M,) bool, True = active at horizon

    def __post_init__(self):
        # Read-only views: the caller's own arrays stay writeable.
        for name in ("grids", "labels"):
            view = np.asarray(getattr(self, name)).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)


def generate_dataset(rule: RuleParams, cfg: HaltingFitnessConfig,
                     seed) -> HaltingDataset:
    """Simulate cfg.n_grids seeded initial grids to cfg.horizon and label them.

    Grid i is a centered patch from the (seed, i) stream; see `seeded_patches`.
    """
    grids = seeded_patches(cfg.n_grids, cfg.grid_side, cfg.patch_side, seed)
    for _, each in trajectory(grids, rule, cfg.horizon):
        pass
    labels = each(lambda w: w.max(axis=(-2, -1)) > HALT_THRESHOLD)
    return HaltingDataset(grids, labels)


def balance_fitness(active_fraction: float) -> float:
    """-(q - 1/2)^2: zero iff exactly half the grids stay active."""
    return -((active_fraction - 0.5) ** 2)


def simple_fitness(rule: RuleParams, cfg: HaltingFitnessConfig, seed) -> float:
    ds = generate_dataset(rule, cfg, seed_path(seed, 0))
    return balance_fitness(float(ds.labels.mean()))


def prediction_difficulty(accuracies) -> float:
    """Negated mean validation accuracy; in [-1, 0], higher = less predictable."""
    accs = np.asarray(accuracies, dtype=np.float64)
    if accs.size == 0:
        raise ValueError("need at least one accuracy")
    return -float(accs.mean())


def predictor_fitness_from_dataset(
    ds: HaltingDataset, cfg: HaltingFitnessConfig, seed
) -> float:
    """Negated mean validation accuracy of cfg.n_predictors trained CNNs.

    CNN n trains from the (seed, 1 + n) stream. A single-class dataset
    scores -1, the constant predictor's score, without training. Trained
    CNNs reach it too at the default config, but not untrained ones
    (0 epochs).
    """
    if ds.labels.min() == ds.labels.max():
        return -1.0
    accs = [
        pred.train(
            ds.grids,
            ds.labels,
            epochs=cfg.epochs,
            split=cfg.split,
            seed=seed_path(seed, 1 + n),
        ).val_accuracy
        for n in range(cfg.n_predictors)
    ]
    return prediction_difficulty(accs)


def predictor_fitness(rule: RuleParams, cfg: HaltingFitnessConfig, seed) -> float:
    ds = generate_dataset(rule, cfg, seed_path(seed, 0))
    return predictor_fitness_from_dataset(ds, cfg, seed)


# --- genome mapping ----------------------------------------------------------

def _logit(p):
    return np.log(p) - np.log1p(-p)


def squash_genome(raw) -> np.ndarray:
    """Unbounded 4-vector -> (g_mu, g_sigma, p_mu, p_sigma) in bounds.

    mu coordinates map to (0, 1); sigma coordinates to (0.001, 0.3).
    Monotone per coordinate, hence bijective.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape != (GENOME_DIM,):
        raise ValueError(f"genome must have {GENOME_DIM} entries")
    s = pred.sigmoid(raw)
    out = s.copy()
    out[1::2] = SIGMA_LO + (SIGMA_HI - SIGMA_LO) * s[1::2]
    return out


def genome_to_rule(
    raw, kernel: KernelSpec, dt: float, name: str = "candidate"
) -> RuleParams:
    g_mu, g_sigma, p_mu, p_sigma = squash_genome(raw)
    return RuleParams(
        name,
        GLABERISH,
        kernel,
        dt,
        genesis=GrowthBump(g_mu, g_sigma),
        persistence=GrowthBump(p_mu, p_sigma),
    )


# --- evolution loop ----------------------------------------------------------

def _evaluate(args) -> float:
    """Worker for one candidate: its fitness, which may be non-finite."""
    raw, cfg, eval_seed, fitness_fn = args
    if fitness_fn is not None:
        value = fitness_fn(raw, eval_seed)
    else:
        rule = genome_to_rule(raw, cfg.kernel, cfg.dt)
        fitness = predictor_fitness if cfg.mode == "predictor" else simple_fitness
        value = fitness(rule, cfg.fitness, eval_seed)
    return float(value)


class UniformSearch:
    """Random mode's ask/tell strategy, the baseline for CMA-ES.

    Candidate i of generation g is a uniform draw in the squash bounds from
    the (seed, g, i) stream, mapped back to unbounded space.
    """

    def __init__(self, seed, popsize: int):
        self.seed, self.popsize, self.generation = seed, popsize, 0

    def ask(self) -> np.ndarray:
        unit = [substream(self.seed, self.generation + 1, i).random(GENOME_DIM)
                for i in range(self.popsize)]
        return _logit(np.clip(unit, 1e-9, 1 - 1e-9))

    def tell(self, candidates, fitnesses):
        self.generation += 1
        return candidates, fitnesses


def evolve_rules(cfg: EvolveCaConfig, seed: int, fitness_fn=None,
                 workers: int = 1) -> SearchResult:
    """Run one evolution: CMA-ES for simple/predictor, uniform for random.

    `parallel.run_search` drives either strategy through ask/tell, and
    candidate i of generation g is evaluated under the derived seed
    (seed, g, i), so any evaluation schedule gives identical results.
    fitness_fn(raw, eval_seed), when given, replaces the built-in fitness.
    A non-finite fitness is told as -1 and counted in n_nonfinite. The
    result's best is a raw genome; `genome_to_rule` turns it into a rule.
    """
    lam = cfg.popsize or default_popsize(GENOME_DIM)
    if cfg.mode == "random":
        strategy = UniformSearch(seed, lam)
    else:
        strategy = CmaEs(
            np.zeros(GENOME_DIM),
            cfg.sigma0,
            seed=list(seed_path(seed, 0)),
            popsize=lam,
        )
    n_nonfinite = []  # per generation

    def evaluate(gen, cands, pool_map):
        jobs = [(cands[i], cfg, seed_path(seed, gen, i), fitness_fn)
                for i in range(lam)]
        fits = np.array(list(pool_map(_evaluate, jobs)))
        nonfinite = ~np.isfinite(fits)
        fits[nonfinite] = -1.0
        n_nonfinite.append(int(nonfinite.sum()))
        return fits

    def describe(genome, fitness):
        return {"best_genome": [float(v) for v in genome],
                "n_nonfinite": n_nonfinite[-1], "mode": cfg.mode, "seed": seed}

    return run_search(strategy, cfg.generations, evaluate, describe,
                      min(workers, lam))
