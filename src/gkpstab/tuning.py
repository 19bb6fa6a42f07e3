"""Gain optimization for the two-mode-squeezing code.

Finds the squeezing strength that minimizes the output logical noise
for a given channel, and locates the break-even boundaries in channel
noise and in ancilla quality.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._guard import checked, shaped
from .analytic import tms_variance, tms_variance_erfc_approx, tms_variance_noisy_gkp
from .noise import gkp_sigma_from_db

__all__ = [
    "GainOptimum",
    "squeeze_db_from_gain",
    "optimize",
    "threshold_sigma",
    "critical_gkp_squeezing_db",
]

# objective -> the largest gain its formula keeps finite: the lattice sums
# form G (G - 1), the erfc form 8 pi G (G - 1)
_OBJECTIVES = {
    "exact": math.sqrt(sys.float_info.max),
    "erfc_approx": math.sqrt(sys.float_info.max / (8.0 * math.pi)),
    "noisy_gkp": math.sqrt(sys.float_info.max),
}
_GRID_POINTS = 256
_REL_TOL = 1e-6
_SCAN_CHUNK = 10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class GainOptimum:
    """Optimal working point of the two-mode-squeezing code.

    Fields are floats for a scalar sigma, else arrays of sigma's shape;
    compare the fields, as for the other array-carrying records.
    """

    g_star: float
    lambda_star: float
    squeeze_db: float
    sigma_L_star: float
    qec_gain: float


def squeeze_db_from_gain(gain: float) -> float:
    """Single-mode squeezing, in dB, that realizes gain G via beam splitters."""
    checked("gain", gain, ">= 1")
    lam = math.sqrt(gain) + math.sqrt(gain - 1.0)
    return 20.0 * math.log10(lam)


def _objective(name: str, sigma_gkp: float):
    # fun(sigma, gain), broadcasting the two; the module-level names are
    # looked up at each call
    if name == "noisy_gkp":
        return lambda s, g: tms_variance_noisy_gkp(s, sigma_gkp, g)
    if name not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {tuple(_OBJECTIVES)}, got {name!r}")
    if sigma_gkp > 0:
        raise ValueError(
            f"objective {name!r} assumes ideal ancillas, got sigma_gkp={sigma_gkp}; "
            f"use 'noisy_gkp'"
        )
    if name == "exact":
        return lambda s, g: tms_variance(s, g)
    return lambda s, g: tms_variance_erfc_approx(s, g)


def _each(fn, x) -> np.ndarray:
    # fn per element: numpy's vector exp and log need not round as libm does
    return np.array([fn(v) for v in x], dtype=float)


def _grids(sigma, objective: str) -> np.ndarray:
    # one geometric gain grid per sigma, from G = 1 to where the amplified
    # noise spans a measurement cell, pi / (2 sigma^2).  A sigma that puts
    # that top past the largest gain of the objective's formula, any sigma
    # below ~1.08e-77 (~2.42e-77 for erfc_approx), is refused before numpy
    # can warn; where sigma^2 underflows the top is inf
    gain_max = _OBJECTIVES[objective]
    with np.errstate(over="ignore", divide="ignore"):
        top = np.maximum(2.0, math.pi / (2.0 * sigma * sigma))
    beyond = ~(top <= gain_max)
    if beyond.any():
        raise ValueError(
            f"sigma must keep the gain grid's top, pi / (2 sigma^2), at most {gain_max:.6g} "
            f"for the {objective!r} objective, got {np.extract(beyond, sigma)[0]}"
        )
    return np.geomspace(1.0, top, _GRID_POINTS, axis=-1)


def _golden_min(fun, sigma, lo, hi) -> np.ndarray:
    # one golden-section search per sigma, in log space where the variance
    # is smooth and unimodal.  The searches run in lockstep, with one
    # objective call per step over the rows still searching.  float64 +, -,
    # * and < round on arrays as on Python floats, and exp and log go per
    # element, so each row evaluates exactly the gains of its lone search
    a, b = _each(math.log, lo), _each(math.log, hi)
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = fun(sigma, _each(math.exp, c)), fun(sigma, _each(math.exp, d))
    rows = np.flatnonzero(b - a > _REL_TOL)
    while rows.size:
        left = fc[rows] < fd[rows]
        # rows i keep the left part of their bracket, rows j the right
        i, j = rows[left], rows[~left]
        b[i], d[i], fd[i] = d[i], c[i], fc[i]
        a[j], c[j], fc[j] = c[j], d[j], fd[j]
        c[i] = b[i] - _INVPHI * (b[i] - a[i])
        d[j] = a[j] + _INVPHI * (b[j] - a[j])
        values = fun(sigma[rows], _each(math.exp, np.where(left, c[rows], d[rows])))
        fc[i], fd[j] = values[left], values[~left]
        rows = rows[b[rows] - a[rows] > _REL_TOL]
    return _each(math.exp, 0.5 * (a + b))


def optimize(sigma, sigma_gkp: float = 0.0, objective: str = "exact") -> GainOptimum:
    """Minimize the output variance over the gain.

    A coarse geometric grid brackets the minimum and a golden-section
    refinement polishes it.  When no gain beats the bare channel the
    result is clamped to G = 1 (no encoding).  `sigma` may be an array:
    every sigma is searched in lockstep, and each gives the fields of its
    lone search bit for bit.  The "exact" and "erfc_approx" objectives
    assume ideal ancillas and reject sigma_gkp > 0; "noisy_gkp" takes any
    sigma_gkp and equals "exact" bit for bit at sigma_gkp = 0.  A sigma
    below ~1.08e-77 (~2.42e-77 for "erfc_approx") raises ValueError: its
    gain grid would reach gains whose variance leaves the float range.
    """
    sig = np.asarray(checked("sigma", sigma, "positive"), dtype=float)
    checked("sigma_gkp", sigma_gkp, "nonnegative")
    fun = _objective(objective, sigma_gkp)
    shape, sig = sig.shape, sig.reshape(-1)

    grids = _grids(sig, objective)
    values = fun(sig[:, None], grids)
    k = np.argmin(values, axis=-1)
    rows = np.arange(sig.size)
    lo = np.where(k == 0, 1.0 + 1e-12, grids[rows, k - 1])
    hi = grids[rows, np.minimum(k + 1, _GRID_POINTS - 1)]
    search = k > 0
    edge = np.flatnonzero(k == 0)
    if edge.size:
        # the minimum sits at G = 1 unless a slightly larger gain does better
        nudged = fun(sig[edge], np.full(edge.size, 1.0 + 1e-9))
        search[edge] = values[edge, 0] > nudged
    g_star = np.ones(sig.size)
    if search.any():
        g_star[search] = _golden_min(fun, sig[search], lo[search], hi[search])
    var = fun(sig, g_star)

    bare = sig * sig
    clamped = (var >= bare) | (g_star <= 1.0 + 1e-9)
    g_star = np.where(clamped, 1.0, g_star)
    fields = (
        g_star,
        np.sqrt(g_star) + np.sqrt(g_star - 1.0),
        _each(squeeze_db_from_gain, g_star),
        np.where(clamped, sig, np.sqrt(var)),
        np.where(clamped, 1.0, bare / var),
    )
    return GainOptimum(*(shaped(f, shape) for f in fields))


def threshold_sigma(sigma_gkp: float = 0.0, tol: float = 1e-4):
    """Largest channel noise at which encoding still helps.

    Returns None when no channel noise benefits, which happens once the
    ancilla noise is too large.
    """
    checked("sigma_gkp", sigma_gkp, "nonnegative")
    checked("tol", tol, "positive")
    # the scan searches a chunk of sigmas at a time in lockstep and stops
    # at the first chunk where encoding helps: one search of all 76 would
    # pay for the sigmas below the threshold too
    scan = np.linspace(0.8, 0.05, 76)
    for start in range(0, scan.size, _SCAN_CHUNK):
        chunk = scan[start:start + _SCAN_CHUNK]
        helps = optimize(chunk, sigma_gkp, "noisy_gkp").g_star > 1.0
        if helps.any():
            first = start + int(np.argmax(helps))
            break
    else:
        return None
    return _bisect(
        float(scan[first]), float(scan[max(first - 1, 0)]), tol,
        lambda mid: optimize(mid, sigma_gkp, "noisy_gkp").g_star > 1.0,
    )


def _bisect(lo, hi, tol, raises_lo):
    # halve [lo, hi] to a width of at most tol, or to two adjacent floats,
    # and return its midpoint; raises_lo(mid) says whether mid becomes lo or hi
    mid = 0.5 * (lo + hi)
    while hi - lo > tol and lo < mid < hi:
        if raises_lo(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def _any_window(sigma_gkp: float) -> bool:
    # every sigma of the window is searched: near the critical squeezing
    # the best gain beats G = 1 by ~1e-5, which no coarse grid can rank
    sigmas = np.unique(
        np.concatenate([np.geomspace(0.05, 0.6, 48), np.linspace(0.25, 0.45, 41)])
    )
    return bool((optimize(sigmas, sigma_gkp, "noisy_gkp").g_star > 1.0).any())


def critical_gkp_squeezing_db(tol_db: float = 0.01) -> float:
    """Minimum ancilla squeezing, in dB, below which encoding never helps."""
    checked("tol_db", tol_db, "positive")
    lo, hi = 8.0, 14.0
    if _any_window(gkp_sigma_from_db(lo)):
        raise RuntimeError("search bracket too narrow at the low end")
    if not _any_window(gkp_sigma_from_db(hi)):
        raise RuntimeError("search bracket too narrow at the high end")
    return _bisect(lo, hi, tol_db, lambda mid: not _any_window(gkp_sigma_from_db(mid)))
