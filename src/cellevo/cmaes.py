"""Covariance matrix adaptation evolution strategy, maximization convention.

Self-contained ask/tell implementation with the standard parameter
schedule: weighted recombination of the top half, two evolution paths,
rank-one plus rank-mu covariance update, and cumulative step-size
adaptation. Population size defaults to 4 + floor(3 ln d).
"""
from __future__ import annotations

import math

import numpy as np

EIGEN_FLOOR = 1e-20


def default_popsize(dim: int) -> int:
    """The standard population size for a `dim`-dimensional search."""
    return 4 + int(3 * math.log(dim))


class CmaEs:
    """Ask/tell optimizer state. Higher fitness is better.

    Usage::

        es = CmaEs(x0, sigma0, seed=1)
        for _ in range(generations):
            xs = es.ask()
            es.tell(xs, [fitness(x) for x in xs])
    """

    def __init__(self, x0, sigma0: float, seed, popsize: int | None = None):
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.ndim != 1 or x0.size < 1:
            raise ValueError("x0 must be a non-empty 1-D array")
        if not (math.isfinite(sigma0) and sigma0 > 0):
            raise ValueError("sigma0 must be positive")
        d = x0.size
        lam = default_popsize(d) if popsize is None else int(popsize)
        if lam < 2:
            raise ValueError("population size must be at least 2")

        mu = lam // 2
        w = math.log(lam / 2 + 0.5) - np.log(np.arange(1, mu + 1))
        w /= w.sum()
        mueff = 1.0 / np.sum(w**2)

        self.dim = d
        self.popsize = lam
        self.mu = mu
        self.weights = w
        self.mueff = mueff
        self.cc = (4 + mueff / d) / (d + 4 + 2 * mueff / d)
        self.cs = (mueff + 2) / (d + mueff + 5)
        self.c1 = 2 / ((d + 1.3) ** 2 + mueff)
        self.cmu = min(
            1 - self.c1, 2 * (mueff - 2 + 1 / mueff) / ((d + 2) ** 2 + mueff)
        )
        self.damps = (
            1 + 2 * max(0.0, math.sqrt((mueff - 1) / (d + 1)) - 1) + self.cs
        )
        self.chi_n = math.sqrt(d) * (1 - 1 / (4 * d) + 1 / (21 * d * d))

        self.mean = x0.copy()
        self.sigma = float(sigma0)
        self.cov = np.eye(d)
        self.path_sigma = np.zeros(d)
        self.path_cov = np.zeros(d)
        self.generation = 0
        self.rng = np.random.default_rng(seed)
        self._decompose()

    def _decompose(self):
        """Refresh eigendecomposition; floor eigenvalues and re-symmetrize."""
        self.cov = (self.cov + self.cov.T) / 2.0
        vals, vecs = np.linalg.eigh(self.cov)
        if vals[0] < EIGEN_FLOOR:
            vals = np.maximum(vals, EIGEN_FLOOR)
            self.cov = (vecs * vals) @ vecs.T
        self._eigvecs = vecs
        self._sqrt_vals = np.sqrt(vals)
        # C^(-1/2), used to whiten mean shifts for the sigma path.
        self._inv_sqrt = (vecs / self._sqrt_vals) @ vecs.T

    def ask(self) -> np.ndarray:
        """Sample a (popsize, dim) array of candidates ~ N(mean, sigma^2 C)."""
        z = self.rng.standard_normal((self.popsize, self.dim))
        y = (z * self._sqrt_vals) @ self._eigvecs.T
        return self.mean + self.sigma * y

    def tell(self, candidates, fitnesses):
        """Rank by fitness (descending), update all state; return both arrays."""
        xs = np.asarray(candidates, dtype=np.float64)
        fs = np.asarray(fitnesses, dtype=np.float64)
        if xs.shape != (self.popsize, self.dim):
            raise ValueError(
                f"expected candidates of shape {(self.popsize, self.dim)}, got {xs.shape}"
            )
        if fs.shape != (self.popsize,):
            raise ValueError(f"expected {self.popsize} fitness values")
        if not np.all(np.isfinite(fs)):
            raise ValueError("fitness values must be finite; sanitize before tell()")

        order = np.argsort(-fs, kind="stable")
        parents = xs[order[: self.mu]]

        old_mean = self.mean
        self.mean = self.weights @ parents
        shift = (self.mean - old_mean) / self.sigma

        self.path_sigma = (1 - self.cs) * self.path_sigma + math.sqrt(
            self.cs * (2 - self.cs) * self.mueff
        ) * (self._inv_sqrt @ shift)

        self.generation += 1
        # Stall detection: compare |path| to its expected decay-corrected norm.
        decay = 1 - (1 - self.cs) ** (2 * self.generation)
        hsig = float(
            self.path_sigma @ self.path_sigma / self.dim / decay
            < 2 + 4 / (self.dim + 1)
        )
        self.path_cov = (1 - self.cc) * self.path_cov + hsig * math.sqrt(
            self.cc * (2 - self.cc) * self.mueff
        ) * shift

        steps = (parents - old_mean) / self.sigma
        rank_mu = (steps.T * self.weights) @ steps
        rank_one = np.outer(self.path_cov, self.path_cov)
        # When hsig = 0 the path update was skipped; compensate its variance.
        missing = (1 - hsig) * self.cc * (2 - self.cc)
        self.cov = (
            (1 - self.c1 - self.cmu) * self.cov
            + self.c1 * (rank_one + missing * self.cov)
            + self.cmu * rank_mu
        )

        norm = float(np.linalg.norm(self.path_sigma))
        self.sigma *= math.exp((self.cs / self.damps) * (norm / self.chi_n - 1))
        self._decompose()
        return xs, fs
