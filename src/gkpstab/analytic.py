"""Output-noise statistics of the decoders, computed without sampling.

The logical noise distributions are lattice sums of Gaussian pieces:
the modular syndrome measurement partitions the real line into cells of
width sqrt(2*pi), and each cell contributes a shifted Gaussian weighted
by the probability of landing in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfc, ndtr

from ._guard import checked, frozen, shaped
from .codes import CodeSpec, gkp_repetition
from .decoders import read_rows
from .modular import MODULAR_PERIOD

__all__ = [
    "gaussian_pdf",
    "cell_masses",
    "MixturePdf",
    "tms_variance",
    "tms_variance_erfc_approx",
    "tms_asymptotic_optimum",
    "tms_variance_noisy_gkp",
    "gkp_repetition_stds",
    "single_read_laws",
]

_P = MODULAR_PERIOD
# the most lattice cells either side of zero that a law may sum; optimize's
# gain grid needs at most 7
_N_MAX_LIMIT = 10**6


def gaussian_pdf(x, sigma):
    """Density of N(0, sigma^2) at x; an array `sigma` broadcasts against x."""
    checked("sigma", sigma, "positive")
    x = np.asarray(x, dtype=float)
    return np.exp(-(x * x) / (2.0 * sigma * sigma)) / np.sqrt(2.0 * math.pi * sigma * sigma)


def _inputs_at(bad, **named) -> str:
    # "name=value, ..." of the inputs in `named`, each broadcast to bad's
    # shape, at the first element where `bad` is set
    at = np.flatnonzero(bad)[0]
    return ", ".join(
        f"{name}={np.broadcast_to(value, bad.shape).flat[at]}" for name, value in named.items()
    )


def _n_max(spread, **named):
    # keep cells out to 8 standard deviations so the discarded lattice
    # mass stays below the 1e-10 budget of the mixture weights.  A lattice
    # wider than _N_MAX_LIMIT cells a side is refused before it is built,
    # naming the inputs in `named` (each broadcast against spread) of the
    # first spread that asks for one
    n_max = np.maximum(np.ceil(8.0 * spread / _P) + 1, 5)
    too_wide = ~(n_max <= _N_MAX_LIMIT)
    if too_wide.any():
        raise ValueError(
            f"{_inputs_at(too_wide, **named)} needs {np.extract(too_wide, n_max)[0]:.0f} "
            f"lattice cells either side of zero, more than the limit of {_N_MAX_LIMIT}"
        )
    return n_max.astype(np.intp)


def _cells(spread, n_max: int):
    # indices n = -n_max..n_max of the measurement cells and their masses
    # under N(0, spread^2), on a last axis after spread's.  erf is taken once
    # per boundary (n - 1/2) sqrt(2 pi), so adjacent cells share its bits
    k = np.arange(-n_max, n_max + 2)
    e = erf((k - 0.5) * _P / (math.sqrt(2.0) * spread))
    return k[:-1], 0.5 * (e[..., 1:] - e[..., :-1])


def cell_masses(sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Masses of N(0, sigma^2) on the measurement cells.

    Cell n is [(n - 1/2) sqrt(2 pi), (n + 1/2) sqrt(2 pi)].  Returns the
    cell indices and their probabilities, truncated where the Gaussian
    tail is negligible.
    """
    checked("sigma", sigma, "positive")
    return _cells(sigma, int(_n_max(sigma, sigma=sigma)))


def _lattice_sums(spread, step, **named) -> np.ndarray:
    # sum_n w_n (step n)^2 over the cells of N(0, spread^2), one sum per
    # element of spread, with step broadcast to spread's shape.  Rows are
    # grouped by lattice size so that each sums exactly the cells of a lone
    # call, in the same order: padding to a common lattice would change
    # numpy's pairwise summation and so the last bits.  vecdot reduces each
    # row bit for bit as the 1-d w @ (mu * mu) does, where einsum and
    # sum(-1) do not.  `named` as in _n_max
    shape = np.shape(spread)
    n_max = _n_max(spread, **named).reshape(-1)
    spread = spread.reshape(-1, 1)
    step = (step if np.shape(step) == shape else np.broadcast_to(step, shape)).reshape(-1, 1)
    out = np.empty(n_max.shape)
    one_size = n_max.size <= 1 or (n_max == n_max[0]).all()
    for n in n_max[:1] if one_size else np.unique(n_max):
        rows = slice(None) if one_size else n_max == n
        ns, w = _cells(spread[rows], n)
        mu = step[rows] * ns
        out[rows] = np.vecdot(w, mu * mu)
    return out.reshape(shape)


def _sigma_gain(sigma, gain):
    # (shape, sigma, gain): the checked arguments as floats and their
    # broadcast shape, checked before the conversion turns a bool into a
    # float.  A single value comes back as numpy scalars, whose arithmetic
    # costs far less than that of one-element arrays
    s = np.asarray(checked("sigma", sigma, "positive"), dtype=float)
    g = np.asarray(checked("gain", gain, ">= 1"), dtype=float)
    shape = np.broadcast(s, g).shape
    if s.size == 1 and g.size == 1:
        s, g = s.reshape(-1)[0], g.reshape(-1)[0]
    return shape, s, g


@dataclass(frozen=True, eq=False)
class MixturePdf:
    """Mixture of equal-width Gaussians at lattice shifts.

    Weights are probabilities summing to one up to the truncation
    budget; every component has standard deviation `base_sigma`.
    """

    weights: np.ndarray
    shifts: np.ndarray
    base_sigma: float

    def __post_init__(self):
        w = frozen("weights", self.weights, "nonnegative")
        s = frozen("shifts", self.shifts, "finite")
        if w.shape != s.shape or w.ndim != 1 or w.size == 0:
            raise ValueError("weights and shifts must be matching 1-d arrays")
        total = w.sum()
        if not (1.0 - 1e-10 <= total <= 1.0 + 1e-12):
            raise ValueError(f"mixture weights sum to {total}, expected 1")
        checked("base_sigma", self.base_sigma, "positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "shifts", s)

    def pdf(self, x):
        """Density at x: a float for scalar x, else an array of x's shape."""
        z = np.asarray(x, dtype=float)[..., None] - self.shifts
        return shaped(gaussian_pdf(z, self.base_sigma) @ self.weights, np.shape(x))

    def cdf(self, x):
        """Distribution function at x, shaped like `pdf`."""
        z = np.asarray(x, dtype=float)[..., None] - self.shifts
        return shaped(ndtr(z / self.base_sigma) @ self.weights, np.shape(x))

    def mean(self) -> float:
        return float(self.weights @ self.shifts)

    def variance(self) -> float:
        m = self.mean()
        second = self.weights @ (self.base_sigma**2 + self.shifts**2)
        return float(second - m * m)


def single_read_laws(code: CodeSpec, sigma: float) -> tuple[MixturePdf, MixturePdf]:
    """Logical (position, momentum) noise laws of a code whose decoder
    corrects each data quadrature with at most one read, at channel noise
    sigma.

    The decoder's Gram-Schmidt (`decoders.read_rows`) leaves a data
    residual e, independent of every read, and gives the read its MMSE
    weight c.  The output e + c sqrt(2 pi) n, with n the cell that the read
    landed in, has variance |e|^2 + sum_n w_n (c sqrt(2 pi) n)^2 over the
    cells of the read row's spread.  A quadrature without a read, or with
    an exact read, is Gaussian.  Raises ValueError for a decoder with
    feed-forward or with two reads for one data quadrature.
    """
    checked("sigma", sigma, "positive")
    _, f, rows, sigma_gkp, exact, unit = read_rows(code, sigma)
    if f[:-2].any():
        raise ValueError("single_read_laws needs a decoder without feed-forward")
    laws = []
    for data, weights in zip(rows[-2:], f[-2:]):
        used = np.flatnonzero(weights)
        if used.size > 1:
            raise ValueError("single_read_laws needs at most one read per data quadrature")
        # unit^2 |row|^2 under the root keeps the bits the closed forms pin
        base = math.sqrt(unit * unit * (data @ data))
        if not used.size or exact:
            laws.append(MixturePdf(np.ones(1), np.zeros(1), base))
            continue
        j = used[0]
        spread = math.sqrt(unit * unit * (rows[j] @ rows[j]))
        ns, w = _cells(spread, int(_n_max(spread, sigma=sigma, sigma_gkp=sigma_gkp)))
        laws.append(MixturePdf(w, weights[j] * _P * ns, base))
    return laws[0], laws[1]


def _tms_lattice(sigma, g, sigma_gkp: float):
    # the variance of either quadrature of the two-mode squeezing code as
    # k + sum_n w_n (step n)^2.  With w = 2 sqrt(G(G-1)) / (2G - 1) and
    # q = 2 sigma_gkp^2 / ((2G - 1) sigma^2), the ancilla noise relative to
    # the amplified syndrome's, k = sigma^2 / (2G - 1) + w^2 2 sigma_gkp^2
    # / (1 + q), step = w sqrt(2 pi) / (1 + q) and spread = sqrt(2G - 1)
    # sigma sqrt(1 + q).  At sigma_gkp = 0 every factor of 1 + q is exactly
    # one, so an ideal ancilla keeps the bits of the ideal form
    two_g = 2.0 * g - 1.0
    w = 2.0 * np.sqrt(g * (g - 1.0)) / two_g
    t2 = 2.0 * sigma_gkp * sigma_gkp
    # a term that underflows is negligible and rightly zero; an overflow of
    # 1 + q is taken to its limit below
    with np.errstate(over="ignore", under="ignore"):
        # divided in turn, so that q is 0 at sigma_gkp = 0 even where sigma^2
        # underflows
        q1 = 1.0 + t2 / two_g / sigma / sigma
        k = sigma * sigma / two_g + w * w * t2 / q1
        spread = np.sqrt(two_g) * sigma * np.sqrt(q1)
        wide = q1 == math.inf
        if wide.any():
            # 1 + q overflowed: take its q -> inf limits, k = (2G - 1)
            # sigma^2 and spread = sqrt(2) sigma_gkp; the step is then zero
            k = np.where(wide, two_g * sigma * sigma, k)
            spread = np.where(wide, math.sqrt(t2), spread)
        total = k + _lattice_sums(
            spread, w * _P / q1, sigma=sigma, sigma_gkp=sigma_gkp, gain=g
        )
    failed = ~np.isfinite(total)
    if failed.any():
        inputs = _inputs_at(failed, sigma=sigma, sigma_gkp=sigma_gkp, gain=g)
        raise ArithmeticError(f"variance evaluation failed for {inputs}")
    return total


def tms_variance(sigma, gain):
    """Exact logical noise variance of the two-mode squeezing code.

    `sigma` and `gain` may be arrays that broadcast together: the result
    then has their broadcast shape, and each element equals the call with
    that sigma and gain alone, bit for bit.  Scalar or 0-d arguments give
    a float.  At G = 1 the shifts vanish and the result is exactly
    sigma^2.
    """
    shape, sigma, g = _sigma_gain(sigma, gain)
    return shaped(_tms_lattice(sigma, g, 0.0), shape)


def tms_variance_erfc_approx(sigma, gain):
    """Two-term approximation keeping only the first displaced cells.

    Accurate to about a percent whenever the wrap probability is small;
    handy for the closed-form optimum analysis.  Broadcasts `sigma`
    against `gain` like `tms_variance`.
    """
    shape, sigma, g = _sigma_gain(sigma, gain)
    two_g = 2.0 * g - 1.0
    tail = erfc(math.sqrt(math.pi) / (2.0 * np.sqrt(two_g) * sigma))
    weight = 8.0 * math.pi * g * (g - 1.0) / (two_g * two_g)
    return shaped(sigma * sigma / two_g + weight * tail, shape)


def tms_asymptotic_optimum(sigma: float) -> tuple[float, float]:
    """Small-sigma limits of the optimal gain and achievable noise.

    Returns (gain, sigma_L).  Valid when log(pi^1.5 / (2 sigma^4)) is
    positive, i.e. for sigma well below 1.
    """
    checked("sigma", sigma, "positive")
    big_l = math.log(math.pi**1.5 / (2.0 * sigma**4))
    if big_l <= 0:
        raise ValueError(f"asymptotic form invalid for sigma = {sigma}")
    gain = math.pi / (8.0 * sigma * sigma) / big_l + 0.5
    sigma_l = (2.0 * sigma * sigma / math.sqrt(math.pi)) * math.sqrt(big_l)
    return gain, sigma_l


def tms_variance_noisy_gkp(sigma, sigma_gkp: float, gain):
    """Logical noise variance with finitely squeezed GKP ancillas.

    The MMSE residual is independent of the cell that the noisy syndrome
    lands in, so this is the lattice sum of `tms_variance` over the cells
    of the syndrome plus ancilla noise, with the shifts scaled by the
    decoder weight and the residual widened by the ancilla noise; at
    sigma_gkp = 0 it equals `tms_variance` bit for bit.  Broadcasts
    `sigma` against `gain` like `tms_variance`.
    """
    shape, sigma, g = _sigma_gain(sigma, gain)
    checked("sigma_gkp", sigma_gkp, "nonnegative")
    return shaped(_tms_lattice(sigma, g, sigma_gkp), shape)


def gkp_repetition_stds(sigma: float) -> tuple[float, float]:
    """Logical (position, momentum) standard deviations of the two-mode
    GKP repetition code with ideal ancillas at channel noise sigma.

    Both laws are cell-mass mixtures (`single_read_laws`): Gaussians of
    width sigma/sqrt(2) at half-period shifts weighted by the cells of
    N(0, 2 sigma^2), and of width sigma at full-period shifts weighted by
    the cells of N(0, sigma^2).  With w_n those masses (see
    `cell_masses`), the variances are

        var_q = sigma^2 / 2 + (pi / 2) sum_n n^2 w_n
        var_p = sigma^2 + 2 pi sum_n n^2 w_n.

    For sigma << 1 only the central cell carries weight and the spreads
    tend to the paper's values sigma/sqrt(2) and sigma.  The excess is the
    wrap term: a syndrome that leaves the central cell shifts the position
    output by half a period and the momentum output by a full period.  To
    leading order it adds (pi / 2) erfc(sqrt(2 pi) / (4 sigma)) to var_q
    and 2 pi erfc(sqrt(2 pi) / (2 sqrt(2) sigma)) to var_p; in sigma_q that
    is +5.3% at sigma = 0.3 and +0.04% at sigma = 0.2.
    """
    law_q, law_p = single_read_laws(gkp_repetition(), sigma)
    return math.sqrt(law_q.variance()), math.sqrt(law_p.variance())
