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
    _checked,
    _shaped,
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
    if not (math.isfinite(gain) and gain >= 1.0):
        raise ValueError(f"gain must be finite and >= 1, got {gain}")
    lam = math.sqrt(gain) + math.sqrt(gain - 1.0)
    return 20.0 * math.log10(lam)


def _objective(name: str, sigma_gkp: float):
    # fun(sigma, gain), broadcasting the two; the module-level names are
    # looked up at each call
    if name == "exact":
        return lambda s, g: tms_variance(s, g)
    if name == "erfc_approx":
        return lambda s, g: tms_variance_erfc_approx(s, g)
    if name == "noisy_gkp":
        return lambda s, g: tms_variance_noisy_gkp(s, sigma_gkp, g)
    raise ValueError(f"objective must be one of {_OBJECTIVES}, got {name!r}")


def _each(fn, x) -> np.ndarray:
    # fn per element: numpy's vector exp and log need not round as libm does
    return np.array([fn(v) for v in x], dtype=float)


def _grids(sigma, points: int) -> np.ndarray:
    # one geometric gain grid per sigma, from G = 1 to where the amplified
    # noise spans a measurement cell
    top = np.maximum(2.0, math.pi / (2.0 * sigma * sigma))
    return np.geomspace(1.0, top, points, axis=-1)


def _golden_min(fun, sigma, lo, hi, rel_tol: float = 1e-6) -> np.ndarray:
    # one golden-section search per sigma, in log space where the variance
    # is smooth and unimodal.  The searches run in lockstep, with one
    # objective call per step over the sigmas still searching.  Each keeps
    # its bracket in Python floats, as a lone search does, so it evaluates
    # exactly the gains of a lone search; for the few dozen sigmas of a
    # curve that also beats numpy's per-call overhead
    a, b = [math.log(x) for x in lo], [math.log(x) for x in hi]
    c = [y - _INVPHI * (y - x) for x, y in zip(a, b)]
    d = [x + _INVPHI * (y - x) for x, y in zip(a, b)]
    fc = fun(sigma, _each(math.exp, c)).tolist()
    fd = fun(sigma, _each(math.exp, d)).tolist()
    live = [i for i in range(len(a)) if b[i] - a[i] > rel_tol]
    searching = sigma[live]
    while live:
        left = [fc[i] < fd[i] for i in live]
        probes = []
        for i, go_left in zip(live, left):
            if go_left:
                b[i], d[i], fd[i] = d[i], c[i], fc[i]
                c[i] = b[i] - _INVPHI * (b[i] - a[i])
                probes.append(c[i])
            else:
                a[i], c[i], fc[i] = c[i], d[i], fd[i]
                d[i] = a[i] + _INVPHI * (b[i] - a[i])
                probes.append(d[i])
        values = fun(searching, _each(math.exp, probes)).tolist()
        for i, go_left, value in zip(live, left, values):
            if go_left:
                fc[i] = value
            else:
                fd[i] = value
        still = [i for i in live if b[i] - a[i] > rel_tol]
        if len(still) < len(live):
            searching = sigma[still]
        live = still
    return _each(math.exp, [0.5 * (x + y) for x, y in zip(a, b)])


def optimize(sigma, sigma_gkp: float = 0.0, objective: str = "exact") -> GainOptimum:
    """Minimize the output variance over the gain.

    A coarse geometric grid brackets the minimum and a golden-section
    refinement polishes it.  When no gain beats the bare channel the
    result is clamped to G = 1 (no encoding).  `sigma` may be an array:
    every sigma is searched in lockstep, and each gives the fields of its
    lone search bit for bit.
    """
    sig = _checked("sigma", np.asarray(sigma, dtype=float), "positive")
    _check_finite("sigma_gkp", sigma_gkp)
    fun = _objective(objective, sigma_gkp)
    shape, sig = sig.shape, sig.reshape(-1)

    grids = _grids(sig, _GRID_POINTS)
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
    lam = np.sqrt(g_star) + np.sqrt(g_star - 1.0)
    fields = (
        g_star,
        lam,
        20.0 * _each(math.log10, lam),
        np.where(clamped, sig, np.sqrt(var)),
        np.where(clamped, 1.0, bare / var),
    )
    return GainOptimum(*(_shaped(f, shape) for f in fields))


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
    # the scan searches a chunk of sigmas at a time in lockstep and stops
    # at the first chunk where encoding helps: one search of all 76 would
    # pay for the sigmas below the threshold too
    scan = np.linspace(0.8, 0.05, 76)
    for start in range(0, scan.size, _SCAN_CHUNK):
        chunk = scan[start:start + _SCAN_CHUNK]
        helps = optimize(chunk, sigma_gkp, objective).g_star > 1.0
        if helps.any():
            first = start + int(np.argmax(helps))
            break
    else:
        return None
    lo, hi = float(scan[first]), float(scan[max(first - 1, 0)])
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
    fun = _objective("noisy_gkp", sigma_gkp)
    ratios = fun(sigmas[:, None], _grids(sigmas, 128)).min(axis=-1) / (sigmas * sigmas)
    if (ratios < 1.0 - 1e-6).any():
        return True
    best = sigmas[np.argsort(ratios, kind="stable")[:5]]
    return bool((optimize(best, sigma_gkp, "noisy_gkp").g_star > 1.0).any())


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
