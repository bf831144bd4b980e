"""Evolving seed patterns that travel: CPPN synthesis + truncation GA.

A genome is a fixed-topology coordinate network (4 -> 12 -> 12 -> 1):
one vector of its 229 weights plus 24 activation indices, one per hidden
node. It paints a disc-masked tile from (x, y, r, 1) inputs; the tile is
dropped into the center of a larger grid and simulated under a fixed
rule. Fitness rewards net center-of-mass travel, lightly penalizes drift
in total mass, and hard-penalizes dying out. Selection is plain
truncation with mutation-only refill; initial genome i comes from the
(seed, 0, i) stream.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import PatternEvoConfig
from .grid import centered, substream
from .parallel import SearchResult, run_search
from .predictor import sigmoid
from .rules import trajectory

ACTIVATIONS = {
    "sine": np.sin,
    "gaussian": lambda z: np.exp(-z * z),
    "tanh": np.tanh,
    "identity": lambda z: z,
}
ACT_NAMES = tuple(ACTIVATIONS)  # fixed order: `acts` indexes into this
N_INPUTS = 4
N_HIDDEN = 12

# Layer shapes in packing order: w1, b1, w2, b2, w3, b3.
_SHAPES = ((N_HIDDEN, N_INPUTS), (N_HIDDEN,), (N_HIDDEN, N_HIDDEN), (N_HIDDEN,),
           (N_HIDDEN,), ())
PARAM_COUNT = sum(int(np.prod(s)) for s in _SHAPES)  # 229


class CppnGenome(NamedTuple):
    """One flat weight vector and the two hidden layers' activations.

    `params` holds the (PARAM_COUNT,) weights in the order of `_SHAPES`;
    `acts` is a (2, N_HIDDEN) integer array of indices into ACT_NAMES.
    """

    params: np.ndarray
    acts: np.ndarray

    def layers(self) -> tuple[np.ndarray, ...]:
        """(w1, b1, w2, b2, w3, b3) as reshaped views of `params`."""
        ends = np.cumsum([int(np.prod(s)) for s in _SHAPES])
        parts = np.split(self.params, ends[:-1])
        return tuple(part.reshape(shape) for part, shape in zip(parts, _SHAPES))


def random_genome(rng: np.random.Generator) -> CppnGenome:
    """Standard-normal weights, uniformly drawn activation indices.

    Draw order is fixed (w1 and b1, acts1, w2 and b2, acts2, w3 and b3) so
    a given stream always produces the same genome.
    """
    h, n_acts = N_HIDDEN, len(ACT_NAMES)
    layer1, acts1 = rng.standard_normal(h * N_INPUTS + h), rng.integers(0, n_acts, h)
    layer2, acts2 = rng.standard_normal(h * h + h), rng.integers(0, n_acts, h)
    params = np.concatenate([layer1, layer2, rng.standard_normal(h + 1)])
    return CppnGenome(params, np.stack([acts1, acts2]))


def mutate(genome: CppnGenome, rng: np.random.Generator, weight_std: float,
           act_prob: float) -> CppnGenome:
    """Gaussian noise on every weight, then each node redraws its activation
    with probability act_prob, in `acts.flat` order."""
    params = genome.params + rng.normal(0.0, weight_std, PARAM_COUNT)
    acts = genome.acts.copy()
    for j in range(acts.size):
        if rng.random() < act_prob:
            acts.flat[j] = rng.integers(0, len(ACT_NAMES))
    return CppnGenome(params, acts)


def synthesize(genome: CppnGenome, side: int) -> np.ndarray:
    """Evaluate the network over the tile; zero outside the inscribed disc."""
    if side < 3:
        raise ValueError("tile side must be at least 3")
    w1, b1, w2, b2, w3, b3 = genome.layers()
    coords = np.linspace(-1.0, 1.0, side)
    x = np.broadcast_to(coords[None, :], (side, side))
    y = np.broadcast_to(coords[:, None], (side, side))
    r = np.hypot(x, y)
    h = np.stack([x, y, r, np.ones_like(x)], axis=-1)  # the inputs
    for w, b, acts in ((w1, b1, genome.acts[0]), (w2, b2, genome.acts[1])):
        h = h @ w.T + b
        for j, a in enumerate(acts):
            h[..., j] = ACTIVATIONS[ACT_NAMES[a]](h[..., j])
    out = sigmoid(h @ w3 + b3)
    out[r > 1.0] = 0.0
    return out


# --- center of mass ----------------------------------------------------------

def _axis_com(mass: np.ndarray) -> np.ndarray:
    """Circular mean position for (N, L) per-index mass; L/2 when degenerate."""
    n, length = mass.shape
    theta = 2.0 * np.pi * np.arange(length) / length
    # Row-wise reductions (not BLAS matvec): bitwise independent of batch size.
    s = (mass * np.sin(theta)).sum(axis=-1)
    c = (mass * np.cos(theta)).sum(axis=-1)
    com = (length / (2.0 * np.pi)) * np.arctan2(s, c) % length
    degenerate = np.hypot(s, c) < 1e-12
    return np.where(degenerate, length / 2.0, com)


def _com_batch(states: np.ndarray) -> np.ndarray:
    """(N, H, W) -> (N, 2) wrap-aware centers of mass."""
    n, h, w = states.shape
    rows = _axis_com(states.sum(axis=2))
    cols = _axis_com(states.sum(axis=1))
    empty = states.reshape(n, -1).sum(axis=1) < 1e-12
    rows = np.where(empty, h / 2.0, rows)
    cols = np.where(empty, w / 2.0, cols)
    return np.stack([rows, cols], axis=1)


def _wrap_delta(delta: np.ndarray, side: int) -> np.ndarray:
    """Reduce displacements into [-side/2, side/2) (shortest way around)."""
    return (delta + side / 2.0) % side - side / 2.0


# --- fitness -----------------------------------------------------------------

@dataclass(frozen=True)
class PatternFitness:
    motility: float  # | sum of wrapped checkpoint CoM deltas |
    homeostasis_penalty: float  # |mean_T - mean_0| / mean_0
    survived: bool  # max cell above threshold at every checkpoint
    total: float

    def __float__(self) -> float:
        return self.total


def evaluate_tiles(tiles, cfg: PatternEvoConfig) -> list[PatternFitness]:
    """Score a batch of tiles under cfg.rule; results are per-tile independent.

    When zero is absorbing, slices that reach the exact all-zero state are
    retired instead of being simulated further and read as an empty grid
    at every later checkpoint; bitwise identical to stepping them on.
    """
    tiles = [np.asarray(t, dtype=np.float64) for t in tiles]
    side = cfg.grid_side
    n = len(tiles)
    start = np.zeros((n, side, side))
    for i, tile in enumerate(tiles):
        start[i][centered(side, tile.shape)] = tile
    mean0 = start.mean(axis=(1, 2))
    com_prev = _com_batch(start)
    grids = trajectory(start, cfg.rule, cfg.steps)
    del start  # `grids` alone holds it now and drops it after the first update

    net = np.zeros((n, 2))
    survived = np.ones(n, dtype=bool)
    for t, each in grids:
        if t % cfg.stride and t != cfg.steps:
            continue
        com = each(_com_batch)
        net += _wrap_delta(com - com_prev, side)
        com_prev = com
        survived &= each(lambda w: w.max(axis=(1, 2))) > cfg.survival_threshold
    final_mean = each(lambda w: w.mean(axis=(1, 2)))

    motility = np.hypot(net[:, 0], net[:, 1])
    homeo = np.abs(final_mean - mean0) / np.maximum(mean0, 1e-12)
    results = []
    for i in range(n):
        total = (
            motility[i] - cfg.lambda_homeo * homeo[i] if survived[i] else -1000.0
        )
        results.append(
            PatternFitness(
                float(motility[i]), float(homeo[i]), bool(survived[i]), float(total)
            )
        )
    return results


# --- evolution ---------------------------------------------------------------

def _eval_chunk(args):
    return evaluate_tiles(*args)  # (tiles, cfg)


class TruncationGA:
    """Truncation selection with mutation-only refill, on the ask/tell protocol.

    The first ask() returns the initial population, genome i from the
    (seed, 0, i) stream; each later one keeps the top `keep` genomes, whose
    scores carry over, and returns offspring for the other slots only.
    """

    def __init__(self, cfg: PatternEvoConfig, seed):
        self.cfg, self.seed, self.generation = cfg, seed, 0
        self.keep = max(1, round(cfg.population * cfg.truncation))
        self.population, self.fitnesses = [], []  # genomes, their scores

    def ask(self) -> list[CppnGenome]:
        cfg, keep = self.cfg, self.keep
        if not self.population:
            return [random_genome(substream(self.seed, 0, i))
                    for i in range(cfg.population)]
        order = sorted(range(cfg.population), key=lambda i: self.fitnesses[i].total,
                       reverse=True)[:keep]
        self.population = [self.population[i] for i in order]
        self.fitnesses = [self.fitnesses[i] for i in order]
        offspring = []
        for slot in range(keep, cfg.population):
            rng = substream(self.seed, self.generation + 1, slot)
            parent = self.population[int(rng.integers(0, keep))]
            offspring.append(mutate(parent, rng, cfg.weight_std, cfg.act_prob))
        return offspring

    def tell(self, genomes, fitnesses):
        self.population += genomes
        self.fitnesses += fitnesses
        self.generation += 1
        return self.population, self.fitnesses


def evolve_patterns(cfg: PatternEvoConfig, seed: int,
                    workers: int = 1) -> SearchResult:
    """Truncation GA under cfg.rule: keep the top quarter, refill with
    mutated survivors.

    `parallel.run_search` drives a `TruncationGA` through ask/tell and
    scores each generation's new genomes as one evaluate_tiles batch per
    worker. Offspring in slot i of generation g draw parent choice and
    mutation noise from the (seed, g, i) stream. The result's best is a
    genome; `synthesize` paints its tile.
    """
    ga = TruncationGA(cfg, seed)

    def evaluate(gen, genomes, pool_map):
        tiles = [synthesize(g, cfg.resolved_tile_side) for g in genomes]
        chunks = np.array_split(np.arange(len(tiles)), min(workers, len(tiles)))
        jobs = [([tiles[i] for i in chunk], cfg) for chunk in chunks]
        return [fit for part in pool_map(_eval_chunk, jobs) for fit in part]

    def describe(genome, fit):
        return {"best_motility": fit.motility,
                "best_homeostasis": fit.homeostasis_penalty,
                "best_survived": fit.survived, "mode": "pattern", "seed": seed}

    return run_search(ga, cfg.generations, evaluate, describe,
                      min(workers, cfg.population))
