"""Additive Gaussian noise channels and their reshaping by encoders.

The iid channel adds independent N(0, sigma^2) noise to all 2N
quadratures.  Conjugating the channel by an encoding circuit S turns a
noise draw xi into the reshaped noise z = S^{-1} xi, with covariance
sigma^2 S^{-1} S^{-T}.  Monte Carlo reshapes each block of draws through
`reshape_noise`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._guard import checked, counted
from .symplectic import SymplecticTransform, apply, inverse

__all__ = [
    "IidNoiseModel",
    "stream_rng",
    "draw_normal",
    "sample_iid",
    "reshape_noise",
    "gkp_sigma_from_db",
]


@dataclass(frozen=True)
class IidNoiseModel:
    """Iid additive Gaussian noise of strength `sigma` on `n_modes` modes."""

    sigma: float
    n_modes: int

    def __post_init__(self):
        checked("sigma", self.sigma, "nonnegative")
        counted("n_modes", self.n_modes, 1)


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for an independent, reproducible substream of `seed`.

    Distinct `stream` values give statistically independent generators,
    and the same (seed, stream) pair reproduces the same draws.
    """
    counted("seed", seed, 0)
    counted("stream", stream, 0)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def draw_normal(gen: np.random.Generator, sigma: float, shape) -> np.ndarray:
    """N(0, sigma^2) noise of `shape`, the same bits as gen.normal(0.0, sigma, shape).

    Generator.normal returns 0.0 + sigma * z; filling standard normals in
    bulk and scaling them in place is cheaper, and adding 0.0 turns the
    -0.0 of sigma = 0 into +0.0.
    """
    checked("sigma", sigma, "nonnegative")
    xi = gen.standard_normal(shape)
    xi *= sigma
    xi += 0.0
    return xi


def sample_iid(model: IidNoiseModel, seed: int, count: int, stream: int = 0) -> np.ndarray:
    """Draw `count` noise vectors of shape (count, 2N) from the iid channel."""
    counted("count", count, 0)
    return draw_normal(stream_rng(seed, stream), model.sigma, (count, 2 * model.n_modes))


def reshape_noise(encoder: SymplecticTransform, xi: np.ndarray) -> np.ndarray:
    """Reshaped noise z = S^{-1} xi for noise vectors of shape (..., 2N)."""
    return apply(inverse(encoder), xi)


def gkp_sigma_from_db(squeeze_db: float) -> float:
    """GKP noise standard deviation for a squeezing level in dB.

    The squeezing of a GKP state is s = -10 log10(2 sigma_gkp^2), so
    infinite squeezing is the noiseless limit sigma_gkp = 0.
    """
    if squeeze_db == math.inf:
        return 0.0
    checked("squeeze_db", squeeze_db, "finite")
    try:
        return math.sqrt(10.0 ** (-squeeze_db / 10.0) / 2.0)
    except OverflowError:
        raise ValueError(f"squeeze_db must keep the noise variance finite, got {squeeze_db}") from None
