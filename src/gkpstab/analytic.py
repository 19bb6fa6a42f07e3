"""Output-noise statistics of the decoders, computed without sampling.

The logical noise distributions are lattice sums of Gaussian pieces:
the modular syndrome measurement partitions the real line into cells of
width sqrt(2*pi), and each cell contributes a shifted Gaussian weighted
by the probability of landing in it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfc, ndtr

from .codes import CodeSpec, gkp_repetition, gkp_tms
from .decoders import Decoder
from .modular import MODULAR_PERIOD
from .symplectic import inverse

__all__ = [
    "gaussian_pdf",
    "cell_masses",
    "MixturePdf",
    "tms_mixture",
    "tms_variance",
    "tms_variance_erfc_approx",
    "tms_asymptotic_optimum",
    "tms_variance_noisy_gkp",
    "gkp_repetition_pdfs",
    "gkp_repetition_stds",
    "single_read_laws",
]

_P = MODULAR_PERIOD


def gaussian_pdf(x, sigma):
    """Density of N(0, sigma^2) at x; an array `sigma` broadcasts against x."""
    if not (np.asarray(sigma) > 0).all():
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = np.asarray(x, dtype=float)
    return np.exp(-(x * x) / (2.0 * sigma * sigma)) / np.sqrt(2.0 * math.pi * sigma * sigma)


def _check_finite(name: str, value: float, positive: bool = False):
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {kind}, got {value}")


def _n_max(spread):
    # keep cells out to 8 standard deviations so the discarded lattice
    # mass stays below the 1e-10 budget of the mixture weights
    return np.maximum(np.ceil(8.0 * spread / _P).astype(np.intp) + 1, 5)


def _cell_edges(n_max) -> np.ndarray:
    # boundaries (n - 1/2) sqrt(2 pi) for n = -n_max..n_max + 1, so that
    # cell n spans edges[n + n_max] to edges[n + n_max + 1]
    return (np.arange(-n_max, n_max + 2) - 0.5) * _P


def _masses(sigma, edges):
    # erf once per boundary: the upper edge of one cell is the lower edge
    # of the next, the same argument and so the same bits
    e = erf(edges / (math.sqrt(2.0) * sigma))
    return 0.5 * (e[..., 1:] - e[..., :-1])


def cell_masses(sigma: float, n_max: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Masses of N(0, sigma^2) on the measurement cells.

    Cell n is [(n - 1/2) sqrt(2 pi), (n + 1/2) sqrt(2 pi)].  Returns the
    cell indices and their probabilities, truncated where the Gaussian
    tail is negligible.
    """
    _check_finite("sigma", sigma, positive=True)
    if n_max is None:
        n_max = int(_n_max(sigma))
    ns = np.arange(-n_max, n_max + 1)
    return ns, _masses(sigma, _cell_edges(n_max))


def _lattice_sums(row_sums, spread, *per_row) -> np.ndarray:
    # row_sums(ns, edges, spread, *per_row) sums over the cells ns = -n..n
    # with boundaries `edges`, each per-row value given as a column; the
    # per-row values broadcast to spread's shape.  Rows are grouped by
    # lattice size so that each sums exactly the cells of a lone call, in
    # the same order: padding to a common lattice would change numpy's
    # pairwise summation and so the last bits.  Returns an array of
    # spread's shape.
    shape = np.shape(spread)
    columns = [
        (v if np.shape(v) == shape else np.broadcast_to(v, shape)).reshape(-1, 1)
        for v in (spread, *per_row)
    ]
    n_max = _n_max(columns[0][:, 0])
    out = np.empty(n_max.shape)
    one_size = n_max.size <= 1 or (n_max == n_max[0]).all()
    for n in n_max[:1] if one_size else np.unique(n_max):
        rows = slice(None) if one_size else n_max == n
        ns, edges = np.arange(-n, n + 1), _cell_edges(n)
        out[rows] = row_sums(ns, edges, *(v[rows] for v in columns))
    return out.reshape(shape)


_WITHIN = {
    "positive": lambda v: v > 0.0,
    "nonnegative": lambda v: v >= 0.0,
    ">= 1": lambda v: v >= 1.0,
}


def _checked(name: str, value, kind: str):
    # value, unchanged, once each of its elements is finite and `kind`; the
    # error names the first element that is not
    ok = _WITHIN[kind](value) & (value < math.inf)
    if np.count_nonzero(ok) != np.size(ok):
        bad = np.extract(~ok, value)[0]
        raise ValueError(f"{name} must be finite and {kind}, got {bad}")
    return value


def _sigma_gain(sigma, gain, kind: str = "positive"):
    # (shape, sigma, gain): the checked arguments and their broadcast shape.
    # A single value comes back as numpy scalars, whose arithmetic costs
    # far less than that of one-element arrays
    s, g = np.asarray(sigma, dtype=float), np.asarray(gain, dtype=float)
    shape = np.broadcast(s, g).shape
    if s.size == 1 and g.size == 1:
        s, g = s.reshape(-1)[0], g.reshape(-1)[0]
    return shape, _checked("sigma", s, kind), _checked("gain", g, ">= 1")


def _shaped(values, shape):
    out = values.reshape(shape)
    return float(out) if out.ndim == 0 else out


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
        w = np.asarray(self.weights, dtype=float)
        s = np.asarray(self.shifts, dtype=float)
        if w.shape != s.shape or w.ndim != 1 or w.size == 0:
            raise ValueError("weights and shifts must be matching 1-d arrays")
        if np.any(w < 0):
            raise ValueError("mixture weights must be nonnegative")
        total = w.sum()
        if not (1.0 - 1e-10 <= total <= 1.0 + 1e-12):
            raise ValueError(f"mixture weights sum to {total}, expected 1")
        _check_finite("base_sigma", self.base_sigma, positive=True)
        w.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "shifts", s)

    def pdf(self, x):
        """Density at x: a float for scalar x, else an array of x's shape."""
        x = np.asarray(x, dtype=float)
        out = gaussian_pdf(x[..., None] - self.shifts, self.base_sigma) @ self.weights
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        """Distribution function at x, shaped like `pdf`."""
        x = np.asarray(x, dtype=float)
        out = ndtr((x[..., None] - self.shifts) / self.base_sigma) @ self.weights
        return float(out) if out.ndim == 0 else out

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

    Let d and a be the rows of S^{-1} of the data quadrature and of its
    read, c the decoder weight (`Decoder.for_code`) and eta the read's
    ancilla noise, of variance 2 sigma_gkp^2.  The output
    d - c (a + eta) + c sqrt(2 pi) n is a Gaussian residual of variance
    k = Var d - c Cov(d, a), independent of the read for the MMSE weight
    c, plus the shift of the cell n that the read landed in, whose spread
    is sqrt(Var a + 2 sigma_gkp^2).  The variance is therefore
    k + sum_n w_n (c sqrt(2 pi) n)^2.  A quadrature without a read, or
    with an exact read, is Gaussian.  Raises ValueError for a decoder
    with feed-forward or with two reads for one data quadrature.
    """
    _check_finite("sigma", sigma, positive=True)
    return _single_read_laws(Decoder.for_code(code, sigma), inverse(code.encoder).matrix, sigma)


def _single_read_laws(dec: Decoder, t: np.ndarray, sigma: float) -> tuple[MixturePdf, MixturePdf]:
    # `single_read_laws` from the code's decoder and S^{-1} = t
    if any(read.feed_forward for read in dec.reads):
        raise ValueError("single_read_laws needs a decoder without feed-forward")
    t2 = 2.0 * dec.sigma_gkp * dec.sigma_gkp
    laws = []
    for data, weights in ((t[0], dec.c_q), (t[1], dec.c_p)):
        used = np.flatnonzero(weights)
        if used.size > 1:
            raise ValueError("single_read_laws needs at most one read per data quadrature")
        c = weights[used[0]] if used.size else 0.0
        read = t[dec.reads[used[0]].column] if used.size else np.zeros_like(data)
        # Var(d - c a) + c^2 Var(eta), which equals Var d - c Cov(d, a) for
        # the MMSE weight c without its cancellation at large gain
        residual = data - c * read
        base = math.sqrt(sigma * sigma * (residual @ residual) + c * c * t2)
        if c == 0.0 or dec.exact:
            laws.append(MixturePdf(np.ones(1), np.zeros(1), base))
            continue
        ns, w = cell_masses(math.sqrt(sigma * sigma * (read @ read) + t2))
        laws.append(MixturePdf(w, c * _P * ns, base))
    return laws[0], laws[1]


def tms_mixture(sigma: float, gain: float) -> MixturePdf:
    """Logical noise distribution of the two-mode squeezing code.

    Both quadratures follow the same law: a Gaussian of width
    sigma/sqrt(2G-1) displaced to mu_n = 2 sqrt(G(G-1))/(2G-1) *
    sqrt(2 pi) n with probability given by the cell masses of the
    amplified syndrome (`single_read_laws` of `codes.gkp_tms(gain)`).
    """
    _check_finite("sigma", sigma, positive=True)
    if not (math.isfinite(gain) and gain >= 1.0):
        raise ValueError(f"gain must be finite and >= 1, got {gain}")
    return single_read_laws(gkp_tms(gain), sigma)[0]


def _shift_sums(ns, edges, spread, step):
    # sum_n w_n mu_n^2 with mu_n = step * n; vecdot reduces each row bit for
    # bit as the 1-d w @ (mu * mu) does, where einsum and sum(-1) do not
    mu = step * ns
    return np.vecdot(_masses(spread, edges), mu * mu)


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
        total = k + _lattice_sums(_shift_sums, spread, w * _P / q1)
    failed = ~np.isfinite(total)
    if failed.any():
        at = np.flatnonzero(failed)[0]
        raise ArithmeticError(
            f"variance evaluation failed for "
            f"sigma={np.broadcast_to(sigma, failed.shape).flat[at]}, "
            f"sigma_gkp={sigma_gkp}, gain={np.broadcast_to(g, failed.shape).flat[at]}"
        )
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
    return _shaped(_tms_lattice(sigma, g, 0.0), shape)


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
    return _shaped(sigma * sigma / two_g + weight * tail, shape)


def tms_asymptotic_optimum(sigma: float) -> tuple[float, float]:
    """Small-sigma limits of the optimal gain and achievable noise.

    Returns (gain, sigma_L).  Valid when log(pi^1.5 / (2 sigma^4)) is
    positive, i.e. for sigma well below 1.
    """
    _check_finite("sigma", sigma, positive=True)
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
    `sigma` against `gain` like `tms_variance`; a channel with sigma = 0
    leaves no noise.
    """
    shape, sigma, g = _sigma_gain(sigma, gain, "nonnegative")
    _check_finite("sigma_gkp", sigma_gkp)
    if np.count_nonzero(sigma) != np.size(sigma):
        out = np.zeros(shape)
        live = np.broadcast_to(sigma > 0, shape)
        if live.any():
            out[live] = tms_variance_noisy_gkp(
                np.broadcast_to(sigma, shape)[live], sigma_gkp,
                np.broadcast_to(g, shape)[live],
            )
        return _shaped(out, shape)
    return _shaped(_tms_lattice(sigma, g, sigma_gkp), shape)


def gkp_repetition_pdfs(xi, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Densities of the logical (position, momentum) noise of the
    two-mode GKP repetition code, evaluated at the points `xi`.

    Both are cell-mass mixtures: Gaussians of width sigma/sqrt(2) at
    half-period shifts weighted by the cells of N(0, 2 sigma^2), and of
    width sigma at full-period shifts weighted by the cells of
    N(0, sigma^2).  For sigma << 1 only the central cell carries weight:
    the paper's logical spreads sigma/sqrt(2) and sigma.  The outer
    pieces are syndromes that wrapped into a neighbouring cell.
    """
    return tuple(law.pdf(xi) for law in _gkp_repetition_laws(sigma))


def gkp_repetition_stds(sigma: float) -> tuple[float, float]:
    """Standard deviations of the two densities above, in closed form.

    With w_n the mass of cell n under N(0, 2 sigma^2) for position and
    N(0, sigma^2) for momentum (see `cell_masses`), the variances are

        var_q = sigma^2 / 2 + (pi / 2) sum_n n^2 w_n
        var_p = sigma^2 + 2 pi sum_n n^2 w_n.

    For sigma << 1 the spreads tend to the paper's values sigma/sqrt(2)
    and sigma.  The excess is the wrap term: a syndrome that leaves the
    central cell shifts the position output by half a period and the
    momentum output by a full period.  To leading order it adds
    (pi / 2) erfc(sqrt(2 pi) / (4 sigma)) to var_q and
    2 pi erfc(sqrt(2 pi) / (2 sqrt(2) sigma)) to var_p; in sigma_q that is
    +5.3% at sigma = 0.3 and +0.04% at sigma = 0.2.
    """
    law_q, law_p = _gkp_repetition_laws(sigma)
    return math.sqrt(law_q.variance()), math.sqrt(law_p.variance())


@functools.cache
def _gkp_repetition_reads() -> tuple[Decoder, np.ndarray]:
    # the ancillas are ideal, so the decoder, like S^{-1}, does not depend on
    # the channel noise it is derived at
    code = gkp_repetition()
    return Decoder.for_code(code, 1.0), inverse(code.encoder).matrix


def _gkp_repetition_laws(sigma: float) -> tuple[MixturePdf, MixturePdf]:
    _check_finite("sigma", sigma, positive=True)
    return _single_read_laws(*_gkp_repetition_reads(), sigma)
