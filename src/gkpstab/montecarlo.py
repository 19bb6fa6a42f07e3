"""Monte Carlo estimation of the logical noise left by a decoder.

Trials are drawn in fixed-size blocks, each with its own counter-derived
random stream, and the per-block partial statistics are merged in block
order.  Results are therefore bit-identical for a given seed no matter
how many worker shards execute the blocks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .analytic import MixturePdf
from .codes import CodeSpec
from .noise import draw_normal, stream_rng
from .symplectic import inverse

__all__ = ["TrialReport", "ComparisonReport", "run", "compare"]

BLOCK_SIZE = 1 << 16
# stream index reserved for the pilot block that sizes the histogram
_PILOT_STREAM = (1 << 32) - 1
_PILOT_TRIALS = 4096
_N_BINS = 201


@dataclass(frozen=True, eq=False)
class TrialReport:
    """Summary statistics of the decoded logical noise."""

    n_trials: int
    seed: int
    mean_q: float
    mean_p: float
    std_q: float
    std_p: float
    se_mean_q: float
    se_mean_p: float
    se_std_q: float
    se_std_p: float
    se_var_q: float
    se_var_p: float
    # histogram, None when run without one; samples beyond the edges are
    # clipped into the edge bins, and outside_* counts them
    bin_edges: np.ndarray | None
    counts_q: np.ndarray | None
    counts_p: np.ndarray | None
    outside_q: int | None
    outside_p: int | None


@dataclass(frozen=True)
class ComparisonReport:
    """Agreement between a trial report and a model distribution."""

    ks_stat: float
    ks_threshold: float
    z_mean: float
    z_var: float
    passed: bool


def _moment_sums(x: np.ndarray) -> np.ndarray:
    # x2 * x and x2 * x2 rather than x**3 and x**4: numpy's generic pow
    # costs tens of ns per element, a multiply about one
    x2 = x * x
    return np.array([x.sum(), x2.sum(), (x2 * x).sum(), (x2 * x2).sum()])


def _histogram(x, edges):
    # bin counts, then the number of samples beyond the edges; np.histogram
    # drops those, and adding them to the edge bins gives the counts of
    # np.clip then np.histogram without the clipped copy
    counts = np.histogram(x, bins=edges)[0]
    below = np.count_nonzero(x < edges[0])
    above = np.count_nonzero(x > edges[-1])
    counts[0] += below
    counts[-1] += above
    return np.append(counts, below + above)


def _block(code, decoder, t_inv, sigma, seed, index, count, edges):
    gen = stream_rng(seed, index)
    z = draw_normal(gen, sigma, (count, 2 * code.n_modes)) @ t_inv
    out = decoder(z, gen)
    xi_q = np.asarray(out.xi_q, dtype=float)
    xi_p = np.asarray(out.xi_p, dtype=float)
    if edges is None:
        return _moment_sums(xi_q), _moment_sums(xi_p), None, None
    return (
        _moment_sums(xi_q),
        _moment_sums(xi_p),
        _histogram(xi_q, edges),
        _histogram(xi_p, edges),
    )


def _pilot_edges(code, decoder, t_inv, sigma, seed):
    # histogram bins reaching six spreads of a pilot run on its own stream
    gen = stream_rng(seed, _PILOT_STREAM)
    pilot = draw_normal(gen, sigma, (_PILOT_TRIALS, 2 * code.n_modes)) @ t_inv
    out = decoder(pilot, gen)
    reach = 6.0 * max(sigma, float(np.std(out.xi_q)), float(np.std(out.xi_p)), 1e-9)
    return np.linspace(-reach, reach, _N_BINS + 1)


def _split(hist):
    return (None, None) if hist is None else (hist[:-1], int(hist[-1]))


def _summary(n, sums):
    mean = sums[0] / n
    var = max((sums[1] - n * mean * mean) / (n - 1), 0.0) if n > 1 else 0.0
    std = math.sqrt(var)
    m4 = sums[3] / n - 4 * mean * sums[2] / n + 6 * mean**2 * sums[1] / n - 3 * mean**4
    se_var = math.sqrt(max(m4 - var * var, 0.0) / n)
    se_std = se_var / (2.0 * std) if std > 0 else 0.0
    return mean, std, std / math.sqrt(n), se_std, se_var


def run(
    code: CodeSpec,
    decoder,
    sigma: float,
    n_trials: int,
    seed: int,
    shards: int = 1,
    histogram: bool = True,
) -> TrialReport:
    """Sample the channel, reshape, decode, and summarize.

    Args:
        code: code whose encoder reshapes the noise.
        decoder: callable (z, rng) -> DecodeOutcome matching the code.
        sigma: additive noise strength per quadrature.
        n_trials: number of independent channel uses.
        seed: base seed; every derived stream is a function of (seed,
            block index) only, so reported numbers do not depend on
            `shards`.
        shards: worker threads used to process blocks, at most one per
            block; one block runs on the calling thread.
        histogram: also bin both quadratures.  Without it no pilot is
            drawn, the histogram fields are None, and every moment field
            keeps its bits: the pilot has a stream of its own.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    t_inv = inverse(code.encoder).matrix.T.copy()
    edges = _pilot_edges(code, decoder, t_inv, sigma, seed) if histogram else None

    starts = range(0, n_trials, BLOCK_SIZE)
    jobs = [(i, min(BLOCK_SIZE, n_trials - s)) for i, s in enumerate(starts)]
    workers = min(shards, len(jobs))
    if workers == 1:
        partials = [
            _block(code, decoder, t_inv, sigma, seed, i, c, edges) for i, c in jobs
        ]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_block, code, decoder, t_inv, sigma, seed, i, c, edges)
                for i, c in jobs
            ]
            partials = [f.result() for f in futures]

    sums_q = np.zeros(4)
    sums_p = np.zeros(4)
    hist_q = hist_p = None
    if histogram:
        hist_q = np.zeros(_N_BINS + 1, dtype=np.int64)
        hist_p = np.zeros(_N_BINS + 1, dtype=np.int64)
    for mq, mp, hq, hp in partials:
        sums_q += mq
        sums_p += mp
        if histogram:
            hist_q += hq
            hist_p += hp
    counts_q, outside_q = _split(hist_q)
    counts_p, outside_p = _split(hist_p)

    mean_q, std_q, se_mq, se_sq, se_vq = _summary(n_trials, sums_q)
    mean_p, std_p, se_mp, se_sp, se_vp = _summary(n_trials, sums_p)
    return TrialReport(
        n_trials=n_trials,
        seed=seed,
        mean_q=mean_q,
        mean_p=mean_p,
        std_q=std_q,
        std_p=std_p,
        se_mean_q=se_mq,
        se_mean_p=se_mp,
        se_std_q=se_sq,
        se_std_p=se_sp,
        se_var_q=se_vq,
        se_var_p=se_vp,
        bin_edges=edges,
        counts_q=counts_q,
        counts_p=counts_p,
        outside_q=outside_q,
        outside_p=outside_p,
    )


def _model_cdf_moments(model, edges):
    if isinstance(model, MixturePdf):
        return model.cdf(edges), model.mean(), model.variance()
    # generic density: build the cdf at the bin edges numerically
    left_tail, _ = quad(model, -np.inf, edges[0])
    fine = np.linspace(edges[0], edges[-1], 16 * (len(edges) - 1) + 1)
    dens = np.array([float(model(u)) for u in fine])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(fine))])
    cdf = left_tail + cum[::16]
    lo, hi = float(edges[0]) - 1.0, float(edges[-1]) + 1.0
    mean, _ = quad(lambda u: u * model(u), lo, hi, limit=200)
    second, _ = quad(lambda u: u * u * model(u), lo, hi, limit=200)
    return cdf, mean, second - mean * mean


def compare(
    report: TrialReport,
    model,
    quadrature: str = "q",
    ks_coeff: float = 1.63,
    z_limit: float = 5.0,
) -> ComparisonReport:
    """Kolmogorov-Smirnov and moment agreement against a model density.

    `model` is either a MixturePdf or a plain density callable.  The KS
    statistic is evaluated on the histogram grid, so the report must come
    from a run with a histogram; the default threshold
    ks_coeff/sqrt(n) corresponds to the 1 percent level.
    """
    if quadrature not in ("q", "p"):
        raise ValueError(f"quadrature must be 'q' or 'p', got {quadrature!r}")
    if report.bin_edges is None:
        raise ValueError("report has no histogram to compare; run with histogram=True")
    counts = report.counts_q if quadrature == "q" else report.counts_p
    mean = report.mean_q if quadrature == "q" else report.mean_p
    std = report.std_q if quadrature == "q" else report.std_p
    se_mean = report.se_mean_q if quadrature == "q" else report.se_mean_p
    se_var = report.se_var_q if quadrature == "q" else report.se_var_p

    n = report.n_trials
    emp = np.concatenate([[0.0], np.cumsum(counts)]) / n
    model_cdf, model_mean, model_var = _model_cdf_moments(model, report.bin_edges)
    ks = float(np.abs(emp - model_cdf).max())
    threshold = ks_coeff / math.sqrt(n)
    z_mean = (mean - model_mean) / se_mean if se_mean > 0 else 0.0
    z_var = (std * std - model_var) / se_var if se_var > 0 else 0.0
    passed = ks < threshold and abs(z_mean) <= z_limit and abs(z_var) <= z_limit
    return ComparisonReport(
        ks_stat=ks,
        ks_threshold=threshold,
        z_mean=float(z_mean),
        z_var=float(z_var),
        passed=bool(passed),
    )
