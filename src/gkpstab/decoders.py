"""Recovery maps estimating the logical noise from reshaped syndromes.

Every code is decoded the same way: ancilla quadratures of the reshaped
noise z = S^{-1} xi (shape (..., 2N)) are read one after another, each
reduced modulo sqrt(2*pi) by modular_measure, and a linear correction
over the reads is subtracted from the data mode.  A `Decoder` is only
that data; the factories below fill it in for each built-in code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import codes
from .modular import modular_measure
from .symplectic import inverse

__all__ = [
    "DecodeOutcome",
    "Read",
    "Decoder",
    "mmse_coefficients",
    "gaussian_repetition_decoder",
    "gkp_repetition_decoder",
    "gkp_tms_decoder",
    "gkp_squeezed_repetition_decoder",
]


@dataclass(frozen=True)
class DecodeOutcome:
    """Residual logical noise (position, momentum) of the data mode."""

    xi_q: np.ndarray
    xi_p: np.ndarray


class Read(NamedTuple):
    """z[..., column] minus weight * m_j for each (j, weight) in
    `feed_forward` (j an earlier read), reduced modulo sqrt(2*pi) unless
    the decoder is exact, then divided by `divisor`."""

    column: int
    feed_forward: tuple = ()
    divisor: float = 1.0


@dataclass(frozen=True)
class Decoder:
    """Modular reads followed by a linear correction of the data mode.

    Calling it on z returns z_q^(1) - sum_k c_q[k] m_k and
    z_p^(1) - sum_k c_p[k] m_k, with m_k the value of reads[k].  Reads
    run in tuple order, which fixes the order of the random draws of
    noisy ancillas (sigma_gkp > 0).  `exact` reads skip the reduction:
    position-eigenstate ancillas reveal z itself.
    """

    n_modes: int
    reads: tuple
    c_q: tuple
    c_p: tuple
    sigma_gkp: float = 0.0
    exact: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.sigma_gkp) and self.sigma_gkp >= 0):
            raise ValueError(f"sigma_gkp must be finite and >= 0, got {self.sigma_gkp}")
        if not len(self.reads) == len(self.c_q) == len(self.c_p):
            raise ValueError("need one c_q and one c_p weight per read")

    def __call__(self, z, rng=None) -> DecodeOutcome:
        x = np.asarray(z, dtype=float)
        if x.shape[-1] != 2 * self.n_modes:
            raise ValueError(f"syndrome width {x.shape[-1]} does not match {self.n_modes} modes")
        gen = np.random.default_rng(rng) if self.sigma_gkp > 0 else None
        values = []
        for read in self.reads:
            v = x[..., read.column]
            for j, weight in read.feed_forward:
                v = v - weight * values[j]
            if not self.exact:
                v = modular_measure(v, self.sigma_gkp, gen)
            values.append(v if read.divisor == 1.0 else v / read.divisor)
        return DecodeOutcome(
            xi_q=x[..., 0] - _combine(self.c_q, values),
            xi_p=x[..., 1] - _combine(self.c_p, values),
        )


def _combine(weights, values):
    # sum of weight * value over the nonzero weights; starting from the
    # first term rather than 0 saves one full-array pass, and a generator
    # keeps at most two terms alive
    terms = (c * v for c, v in zip(weights, values) if c)
    first = next(terms, None)
    return 0.0 if first is None else sum(terms, first)


def mmse_coefficients(gain: float, sigma: float, sigma_gkp: float = 0.0) -> tuple[float, float]:
    """Minimum-mean-square-error rescaling for the two-mode squeezing code.

    Returns (c_q, c_p) such that the estimates are
    z_q^(1) - c_q * m_q and z_p^(1) - c_p * m_p, with m the modular
    syndrome measurements.  The magnitude is

        c = 2 sqrt(G(G-1)) sigma^2 / ((2G-1) sigma^2 + 2 sigma_gkp^2)

    which tends to 2 sqrt(G(G-1)) / (2G-1) < 1 for noiseless ancillas.
    """
    if gain < 1.0:
        raise ValueError(f"gain must be >= 1, got {gain}")
    if sigma < 0 or sigma_gkp < 0:
        raise ValueError("noise strengths must be nonnegative")
    num = 2.0 * math.sqrt(gain * (gain - 1.0))
    if sigma == 0.0 and sigma_gkp == 0.0:
        c = num / (2.0 * gain - 1.0)
    else:
        c = num * sigma**2 / ((2.0 * gain - 1.0) * sigma**2 + 2.0 * sigma_gkp**2)
    return -c, c


def gaussian_repetition_decoder(n_modes: int) -> Decoder:
    """Maximum-likelihood recovery for the Gaussian repetition code.

    Position-eigenstate ancillas expose z_q^(k) exactly; correcting by
    minus their sum over n leaves the mean of the n position noises.
    Nothing is learnt about momentum, so z_p^(1) is returned unchanged.
    """
    reads = tuple(Read(2 * k) for k in range(1, n_modes))
    weights = (-1.0 / n_modes,) * len(reads)
    return Decoder(n_modes, reads, weights, (0.0,) * len(reads), exact=True)


def gkp_repetition_decoder(sigma_gkp: float = 0.0) -> Decoder:
    """Two-mode GKP repetition code: half the ancilla position is added
    to the data position, the ancilla momentum subtracted from its momentum."""
    return Decoder(2, (Read(2), Read(3)), (-0.5, 0.0), (0.0, 1.0), sigma_gkp)


def gkp_tms_decoder(gain: float, sigma: float, sigma_gkp: float = 0.0) -> Decoder:
    """MMSE recovery for the GKP two-mode squeezing code."""
    c_q, c_p = mmse_coefficients(gain, sigma, sigma_gkp)
    return Decoder(2, (Read(2), Read(3)), (c_q, 0.0), (0.0, c_p), sigma_gkp)


def gkp_squeezed_repetition_decoder(n_modes: int, lam: float, sigma_gkp: float = 0.0) -> Decoder:
    """Sequential chain recovery for the N-mode GKP squeezed repetition code.

    Ancilla positions are read in mode order; their weighted sum
    estimates the amplified data position noise, leaving a residual of
    order sigma/lam^(N-1).  Ancilla momenta are read from the last mode
    backwards, feeding forward the transferred noise of the later modes,
    which leaves the same residual on momentum.  The weights come from
    the inverse encoder, whose position block pairs each mode with its
    predecessor and whose momentum block is upper triangular.
    """
    t = inverse(codes.gkp_squeezed_repetition(n_modes, lam).encoder).matrix
    tq, tp = t[0::2, 0::2].tolist(), t[1::2, 1::2].tolist()
    # position weights make the intermediate noises telescope away
    c_q = [tq[0][0] / tq[1][0]]
    for k in range(1, n_modes - 1):
        c_q.append(-c_q[-1] * tq[k][k] / tq[k + 1][k])
    # momentum reads follow the position reads, last mode first, so the
    # momentum of mode j is read number 2 * n_modes - 2 - j
    back = range(n_modes - 1, 0, -1)
    reads = [Read(2 * k) for k in range(1, n_modes)]
    for k in back:
        feed = tuple((2 * n_modes - 2 - j, tp[k][j]) for j in range(k + 1, n_modes))
        reads.append(Read(2 * k + 1, feed, tp[k][k]))
    zeros = [0.0] * (n_modes - 1)
    c_p = zeros + [tp[0][k] for k in back]
    return Decoder(n_modes, tuple(reads), tuple(c_q + zeros), tuple(c_p), sigma_gkp)
