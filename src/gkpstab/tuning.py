"""Gain optimization for the two-mode-squeezing code.

Finds the squeezing strength that minimizes the output logical noise
for a given channel, and locates the break-even boundaries in channel
noise and in ancilla quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import (
    _check_finite,
    tms_variance,
    tms_variance_erfc_approx,
    tms_variance_noisy_gkp,
)
from .noise import gkp_sigma_from_db

__all__ = [
    "GainOptimum",
    "squeeze_db_from_gain",
    "optimize",
    "threshold_sigma",
    "critical_gkp_squeezing_db",
]

_OBJECTIVES = ("exact", "erfc_approx", "noisy_gkp")
_GRID_POINTS = 256
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class GainOptimum:
    """Optimal working point of the two-mode-squeezing code."""

    g_star: float
    lambda_star: float
    squeeze_db: float
    sigma_L_star: float
    qec_gain: float


def squeeze_db_from_gain(gain: float) -> float:
    """Single-mode squeezing, in dB, that realizes gain G via beam splitters."""
    if not (math.isfinite(gain) and gain >= 1.0):
        raise ValueError(f"gain must be finite and >= 1, got {gain}")
    lam = math.sqrt(gain) + math.sqrt(gain - 1.0)
    return 20.0 * math.log10(lam)


def _objective(name: str, sigma: float, sigma_gkp: float):
    # the returned callable takes a gain or an array of gains
    if name == "exact":
        return lambda g: tms_variance(sigma, g)
    if name == "erfc_approx":
        return lambda g: tms_variance_erfc_approx(sigma, g)
    if name == "noisy_gkp":
        return lambda g: tms_variance_noisy_gkp(sigma, sigma_gkp, g)
    raise ValueError(f"objective must be one of {_OBJECTIVES}, got {name!r}")


def _golden_min(fun, lo: float, hi: float, rel_tol: float = 1e-6) -> float:
    # search in log space; the variance is smooth and unimodal there
    a, b = math.log(lo), math.log(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(math.exp(c)), fun(math.exp(d))
    while b - a > rel_tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(math.exp(d))
    return math.exp(0.5 * (a + b))


def optimize(
    sigma: float, sigma_gkp: float = 0.0, objective: str = "exact"
) -> GainOptimum:
    """Minimize the output variance over the gain.

    A coarse geometric grid brackets the minimum and a golden-section
    refinement polishes it.  When no gain beats the bare channel the
    result is clamped to G = 1 (no encoding).
    """
    _check_finite("sigma", sigma, positive=True)
    _check_finite("sigma_gkp", sigma_gkp)
    fun = _objective(objective, sigma, sigma_gkp)

    top = max(2.0, math.pi / (2.0 * sigma * sigma))
    grid = np.geomspace(1.0, top, _GRID_POINTS)
    values = fun(grid)
    k = int(np.argmin(values))
    if k == 0:
        g_star = 1.0 if values[0] <= fun(1.0 + 1e-9) else _golden_min(
            fun, 1.0 + 1e-12, grid[1]
        )
    else:
        hi = grid[min(k + 1, _GRID_POINTS - 1)]
        g_star = _golden_min(fun, grid[k - 1], hi)
    var = fun(g_star)

    bare = sigma * sigma
    if var >= bare or g_star <= 1.0 + 1e-9:
        return GainOptimum(
            g_star=1.0,
            lambda_star=1.0,
            squeeze_db=0.0,
            sigma_L_star=sigma,
            qec_gain=1.0,
        )
    lam = math.sqrt(g_star) + math.sqrt(g_star - 1.0)
    return GainOptimum(
        g_star=g_star,
        lambda_star=lam,
        squeeze_db=20.0 * math.log10(lam),
        sigma_L_star=math.sqrt(var),
        qec_gain=bare / var,
    )


def _is_unclamped(sigma: float, sigma_gkp: float, objective: str) -> bool:
    return optimize(sigma, sigma_gkp, objective).g_star > 1.0


def threshold_sigma(sigma_gkp: float = 0.0, tol: float = 1e-4):
    """Largest channel noise at which encoding still helps.

    Returns None when no channel noise benefits, which happens once the
    ancilla noise is too large.
    """
    _check_finite("sigma_gkp", sigma_gkp)
    _check_finite("tol", tol, positive=True)
    objective = "noisy_gkp" if sigma_gkp > 0 else "exact"
    scan = np.linspace(0.8, 0.05, 76)
    above = scan[0]
    below = None
    for s in scan:
        if _is_unclamped(float(s), sigma_gkp, objective):
            below = float(s)
            break
        above = float(s)
    if below is None:
        return None
    lo, hi = below, above
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _is_unclamped(mid, sigma_gkp, objective):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _any_window(sigma_gkp: float) -> bool:
    sigmas = np.unique(
        np.concatenate([np.geomspace(0.05, 0.6, 48), np.linspace(0.25, 0.45, 41)])
    )
    ratios = []
    for s in sigmas:
        fun = _objective("noisy_gkp", float(s), sigma_gkp)
        grid = np.geomspace(1.0, max(2.0, math.pi / (2.0 * s * s)), 128)
        ratio = fun(grid).min() / (s * s)
        if ratio < 1.0 - 1e-6:
            return True
        ratios.append((ratio, float(s)))
    ratios.sort()
    return any(
        _is_unclamped(s, sigma_gkp, "noisy_gkp") for _, s in ratios[:5]
    )


def critical_gkp_squeezing_db(tol_db: float = 0.01) -> float:
    """Minimum ancilla squeezing, in dB, below which encoding never helps."""
    _check_finite("tol_db", tol_db, positive=True)
    lo, hi = 8.0, 14.0
    if _any_window(gkp_sigma_from_db(lo)):
        raise RuntimeError("search bracket too narrow at the low end")
    if not _any_window(gkp_sigma_from_db(hi)):
        raise RuntimeError("search bracket too narrow at the high end")
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if _any_window(gkp_sigma_from_db(mid)):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
