"""Monte Carlo estimation of the logical noise left by a decoder.

Trials are drawn in fixed-size blocks, each with its own counter-derived
random stream, and the per-block partial statistics are merged in block
order.  Results are therefore bit-identical for a given seed no matter
how many worker shards execute the blocks.

The optional histogram of both quadratures exists for callers that read
the bin counts (today `perfbench`'s `edge_bin_frac`); the CLI and the
acceptance criteria read only the moments and run without it.

Each worker holds one block at a time: its reshaped noise (2N doubles per
trial), a raw draw of at most one chunk of rows, and the decoder's live
reads and two running corrections (a few doubles per trial).  A full
block of an N = 5 code peaks at about 8.5 MiB under tracemalloc, a
two-mode code at 5 MiB.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._guard import checked, counted, flag
from .codes import CodeSpec
from .noise import draw_normal, reshape_noise, stream_rng

__all__ = ["TrialReport", "run"]

BLOCK_SIZE = 1 << 16
# rows of a block drawn and reshaped at a time: few enough that a raw and a
# reshaped chunk beside the block's reshaped noise stay below the decoder's
# peak, many enough that reshape_noise's per-call cost (~10 us, mostly
# holding the GIL) stays small against the draw when shards share the GIL
_CHUNK_ROWS = 16384
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


def _decoded(code, decoder, sigma, seed, stream, count):
    # decoder outcome of `count` trials drawn from the stream (seed, stream).
    # Rows are drawn and reshaped _CHUNK_ROWS at a time, in stream order, into
    # one quadrature-major array: no name holds a raw chunk, so at most one
    # exists, and each quadrature the decoder reads is contiguous.  A batch of
    # two or more rows gives each row the bits it has in any other such batch,
    # a lone row (gemv) need not, so a one-row tail joins the chunk before it.
    gen = stream_rng(seed, stream)
    width = 2 * code.n_modes
    zt = np.empty((width, count))
    stops = range(_CHUNK_ROWS, count - 1, _CHUNK_ROWS)
    for start, stop in zip([0, *stops], [*stops, count]):
        rows = (stop - start, width)
        zt[:, start:stop] = reshape_noise(code.encoder, draw_normal(gen, sigma, rows)).T
    return decoder(zt.T, gen)


def _block(code, decoder, sigma, seed, index, count, edges):
    # one partial: the moment sums of q and of p, then, with a histogram, the
    # counts and outside count of q and of p.  Sums that overflow raise the
    # ValueError of _too_large; numpy's error state is per thread, so the
    # block sets its own
    out = _decoded(code, decoder, sigma, seed, index, count)
    xs = [np.asarray(x, dtype=float) for x in (out.xi_q, out.xi_p)]
    parts = []
    for quad, x in zip("qp", xs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                parts.append(_moment_sums(x))
        except FloatingPointError:
            raise _too_large(quad, f"reach {np.abs(x).max():.3g}") from None
    if edges is not None:
        parts += [_histogram(x, edges) for x in xs]
    return np.concatenate(parts)


def _pilot_edges(code, decoder, sigma, seed):
    # histogram bins reaching six spreads of a pilot run on its own stream
    out = _decoded(code, decoder, sigma, seed, _PILOT_STREAM, _PILOT_TRIALS)
    reach = 6.0 * max(sigma, float(np.std(out.xi_q)), float(np.std(out.xi_p)), 1e-9)
    return np.linspace(-reach, reach, _N_BINS + 1)


def _too_large(quad: str, how: str) -> ValueError:
    return ValueError(
        f"quadrature {quad}'s outputs overflow their fourth-moment sums: they {how}"
    )


def _summary(n, partials, quad):
    # mean, std and the standard errors of quadrature quad from its moment
    # sums in the block partials, merged in block order; an overflow raises
    # the ValueError of _too_large
    at = slice(0, 4) if quad == "q" else slice(4, 8)
    try:
        with np.errstate(over="raise", invalid="raise"):
            sums = sum((p[at] for p in partials), 0.0)
            mean = sums[0] / n
            var = max((sums[1] - n * mean * mean) / (n - 1), 0.0) if n > 1 else 0.0
            std = math.sqrt(var)
            m4 = sums[3] / n - 4 * mean * sums[2] / n + 6 * mean**2 * sums[1] / n - 3 * mean**4
            se_var = math.sqrt(max(m4 - var * var, 0.0) / n)
    except FloatingPointError:
        # each block's sum of fourth powers is finite, and so is its share
        fourth = sum(p[at][3] / n for p in partials) ** 0.25
        raise _too_large(quad, f"reach a root mean fourth power of {fourth:.3g}") from None
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
        histogram: also bin both quadratures, for callers that read the
            counts.  Without it no pilot is drawn, the histogram fields
            are None, and every moment field keeps its bits: the pilot has
            a stream of its own.
    """
    counted("n_trials", n_trials, 1)
    counted("shards", shards, 1)
    checked("sigma", sigma, "nonnegative")
    flag("histogram", histogram)
    edges = _pilot_edges(code, decoder, sigma, seed) if histogram else None

    starts = range(0, n_trials, BLOCK_SIZE)
    jobs = [(i, min(BLOCK_SIZE, n_trials - s)) for i, s in enumerate(starts)]
    workers = min(shards, len(jobs))
    if workers == 1:
        partials = [_block(code, decoder, sigma, seed, i, c, edges) for i, c in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_block, code, decoder, sigma, seed, i, c, edges)
                for i, c in jobs
            ]
            partials = [f.result() for f in futures]

    mean_q, std_q, se_mq, se_sq, se_vq = _summary(n_trials, partials, "q")
    mean_p, std_p, se_mp, se_sp, se_vp = _summary(n_trials, partials, "p")
    counts_q = counts_p = outside_q = outside_p = None
    if histogram:
        # summed in block order; the counts stay exact as floats below 2^53
        totals = sum((p[8:] for p in partials), 0.0)
        hist_q, hist_p = totals.astype(np.int64).reshape(2, _N_BINS + 1)
        counts_q, outside_q = hist_q[:-1], int(hist_q[-1])
        counts_p, outside_p = hist_p[:-1], int(hist_p[-1])
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
