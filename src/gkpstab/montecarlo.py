"""Monte Carlo estimation of the logical noise left by a decoder.

Trials are drawn in fixed-size blocks, each with its own counter-derived
random stream, and the per-block partial statistics are merged in block
order.  Results are therefore bit-identical for a given seed no matter
how many worker shards execute the blocks.

The optional histogram of both quadratures exists for callers that read
the bin counts (today `perfbench`'s `edge_bin_frac`); the CLI and the
acceptance criteria read only the moments and run without it.

`run` also takes a 1-D array of sigmas for one code and one decoder.  A
block's draw for sigma is sigma * u + 0.0 with standard normals u that
depend only on (seed, block index, 2N), so each block draws u once and
scales it for every sigma: common random numbers, which leave every
report the bits of its lone-sigma call.

Each worker holds one block at a time: its reshaped noise (2N doubles per
trial), a raw draw of at most one chunk of rows, and the decoder's live
reads and two running corrections (a few doubles per trial).  A full
block of an N = 5 code peaks at about 8.5 MiB under tracemalloc, a
two-mode code at 5 MiB.  A task of several sigmas also keeps the block's
standard normals (2N doubles per trial more).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._guard import checked, counted, flag
from .codes import CodeSpec
from .noise import reshape_noise, stream_rng

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


def _decoded(code, decoder, sigmas, seed, stream, count):
    # decoder outcome of `count` trials drawn from the stream (seed, stream),
    # one per sigma in `sigmas`, each yielded before the next is formed.
    # Rows are drawn and reshaped _CHUNK_ROWS at a time, in stream order, into
    # one quadrature-major array: no name holds a raw chunk, so a lone sigma
    # holds at most one, and each quadrature the decoder reads is
    # contiguous.  A batch of two or more rows gives each row the bits it has
    # in any other such batch, a lone row (gemv) need not, so a one-row tail
    # joins the chunk before it.  With more sigmas the raw chunks are kept,
    # each later sigma scales them as draw_normal does, and each of its
    # decodes starts from the generator's state after the draws, so noisy
    # ancillas draw what they draw in a lone call
    gen = stream_rng(seed, stream)
    width = 2 * code.n_modes
    zt = np.empty((width, count))
    stops = range(_CHUNK_ROWS, count - 1, _CHUNK_ROWS)
    chunks = list(zip([0, *stops], [*stops, count]))
    raw = np.empty((count, width)) if len(sigmas) > 1 else None

    def scaled(start, stop, sigma, first):
        # draw_normal's sigma * u + 0.0 of the chunk's rows; the first sigma
        # draws them, and scales them in place
        if first:
            xi = gen.standard_normal((stop - start, width))
            if raw is not None:
                raw[start:stop] = xi
            xi *= sigma
        else:
            xi = raw[start:stop] * sigma
        xi += 0.0
        return xi

    for k, sigma in enumerate(sigmas):
        for start, stop in chunks:
            zt[:, start:stop] = reshape_noise(code.encoder, scaled(start, stop, sigma, k == 0)).T
        if k:
            gen.bit_generator.state = drawn
        elif raw is not None:
            drawn = gen.bit_generator.state
        yield decoder(zt.T, gen)


def _partial(out, edges):
    # one sigma's partial of a block: the moment sums of q and of p, then,
    # with histogram edges, the counts and outside count of q and of p.
    # Sums that overflow raise the ValueError of _too_large; numpy's error
    # state is per thread, so each partial sets its own
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


def _block(code, decoder, sigmas, seed, index, count, edges):
    # the partial of each sigma, with its histogram edges or None; map holds
    # no outcome while the next sigma's is formed
    return list(map(_partial, _decoded(code, decoder, sigmas, seed, index, count), edges))


def _pilot_edges(code, decoder, sigmas, seed):
    # per sigma, histogram bins reaching six spreads of a pilot run on its
    # own stream
    outs = _decoded(code, decoder, sigmas, seed, _PILOT_STREAM, _PILOT_TRIALS)
    edges = []
    for sigma, out in zip(sigmas, outs):
        reach = 6.0 * max(sigma, float(np.std(out.xi_q)), float(np.std(out.xi_p)), 1e-9)
        edges.append(np.linspace(-reach, reach, _N_BINS + 1))
    return edges


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


def _report(n, seed, partials, edges) -> TrialReport:
    # one sigma's report from its block partials, in block order
    mean_q, std_q, se_mq, se_sq, se_vq = _summary(n, partials, "q")
    mean_p, std_p, se_mp, se_sp, se_vp = _summary(n, partials, "p")
    counts_q = counts_p = outside_q = outside_p = None
    if edges is not None:
        # summed in block order; the counts stay exact as floats below 2^53
        totals = sum((p[8:] for p in partials), 0.0)
        hist_q, hist_p = totals.astype(np.int64).reshape(2, _N_BINS + 1)
        counts_q, outside_q = hist_q[:-1], int(hist_q[-1])
        counts_p, outside_p = hist_p[:-1], int(hist_p[-1])
    return TrialReport(
        n_trials=n,
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


def run(
    code: CodeSpec,
    decoder,
    sigma,
    n_trials: int,
    seed: int,
    shards: int = 1,
    histogram: bool = True,
) -> TrialReport | list[TrialReport]:
    """Sample the channel, reshape, decode, and summarize.

    Args:
        code: code whose encoder reshapes the noise.
        decoder: callable (z, rng) -> DecodeOutcome matching the code.
        sigma: additive noise strength per quadrature, or a non-empty 1-D
            array of them, all decoded by `decoder`.  An array gives a list
            of one report per sigma, each equal, field by field, to the
            call with that sigma alone; each block draws its standard
            normals once for all of them.
        n_trials: number of independent channel uses.
        seed: base seed; every derived stream is a function of (seed,
            block index) only, so reported numbers do not depend on
            `shards`.
        shards: worker threads.  A task is one block and one contiguous
            slice of the sigmas, min(shards, number of sigmas) slices a
            block; at most one worker runs per task, and one task runs on
            the calling thread.
        histogram: also bin both quadratures, for callers that read the
            counts.  Without it no pilot is drawn, the histogram fields
            are None, and every moment field keeps its bits: the pilot has
            a stream of its own.
    """
    counted("n_trials", n_trials, 1)
    counted("shards", shards, 1)
    checked("sigma", sigma, "nonnegative")
    flag("histogram", histogram)
    if not (np.ndim(sigma) == 0 or np.ndim(sigma) == 1 and len(sigma)):
        raise ValueError(f"sigma must be a number or a non-empty 1-D array, got {sigma!r}")
    sigmas = [float(s) for s in np.ravel(sigma)]
    edges = _pilot_edges(code, decoder, sigmas, seed) if histogram else [None] * len(sigmas)

    slices = min(shards, len(sigmas))
    cuts = [len(sigmas) * j // slices for j in range(slices + 1)]
    tasks = [
        (code, decoder, sigmas[lo:hi], seed, i, min(BLOCK_SIZE, n_trials - start), edges[lo:hi])
        for i, start in enumerate(range(0, n_trials, BLOCK_SIZE))
        for lo, hi in zip(cuts, cuts[1:])
    ]
    workers = min(shards, len(tasks))
    if workers == 1:
        results = [_block(*task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_block, *task) for task in tasks]
            results = [f.result() for f in futures]
    # the tasks go block by block, slice by slice, so a block's results
    # joined hold its partial of every sigma in sigma order
    blocks = [sum(results[at : at + slices], []) for at in range(0, len(results), slices)]
    reports = [
        _report(n_trials, seed, list(partials), sigma_edges)
        for partials, sigma_edges in zip(zip(*blocks), edges)
    ]
    return reports if np.ndim(sigma) else reports[0]
