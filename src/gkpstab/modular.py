"""Centered modular reduction and modular quadrature measurement.

GKP stabilizer measurements reveal a quadrature only modulo sqrt(2*pi).
The reduction used here is centered: the result always lies in
[-s/2, s/2] for period s.
"""

from __future__ import annotations

import math

import numpy as np

from ._guard import checked, seeded, shaped
from .noise import draw_normal

__all__ = ["MODULAR_PERIOD", "centered_mod", "modular_measure"]

# Period of the modular quadrature measurement for square-lattice GKP
# ancillas.
MODULAR_PERIOD = math.sqrt(2.0 * math.pi)


def centered_mod(value, period: float = MODULAR_PERIOD):
    """Reduce `value` to the centered interval [-period/2, period/2].

    Returns value - n*period where n is the integer minimizing the
    magnitude of the result.  Exact ties (value at an odd half-multiple
    of the period) pick the n of smaller magnitude, so the result
    carries the sign of `value`.

    Accepts scalars or arrays; period must be finite and positive.
    """
    checked("period", period, "positive")
    v = np.atleast_1d(np.asarray(value, dtype=float))
    # n = copysign(ceil(|x| - 1/2), x), x = v / period, rounds half toward
    # zero and equals where(x >= 0, ceil(x - 1/2), floor(x + 1/2)) bit for
    # bit, signed zeros included; one buffer holds x, then n, then the result
    out = np.divide(v, period)
    np.abs(out, out=out)
    out -= 0.5
    np.ceil(out, out=out)
    np.copysign(out, v, out=out)
    out *= period
    np.subtract(v, out, out=out)
    return shaped(out, np.shape(value))


def modular_measure(value, sigma_gkp: float = 0.0, rng=None):
    """Simulate a modular quadrature measurement of `value`.

    A noiseless measurement returns centered_mod(value).  With finitely
    squeezed GKP ancillas both the ancilla preparation and the homodyne
    readout contribute, so Gaussian noise of variance 2*sigma_gkp**2 is
    added before the reduction.

    Args:
        value: true quadrature value(s), scalar or array.
        sigma_gkp: per-quadrature GKP noise standard deviation (>= 0).
        rng: None, a numpy Generator or an integer seed >= 0, used when
            sigma_gkp > 0.
    """
    checked("sigma_gkp", sigma_gkp, "nonnegative")
    seeded("rng", rng)
    if sigma_gkp == 0:
        return centered_mod(value)
    gen = np.random.default_rng(rng)
    noisy = draw_normal(gen, math.sqrt(2.0) * sigma_gkp, np.shape(value))
    noisy += value
    return centered_mod(noisy)
