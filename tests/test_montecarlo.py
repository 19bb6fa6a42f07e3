import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkpstab.analytic import single_read_laws
from gkpstab.codes import (
    gaussian_repetition,
    gkp_repetition,
    gkp_squeezed_repetition,
    gkp_tms,
)
from gkpstab.decoders import (
    DecodeOutcome,
    Decoder,
    gaussian_repetition_decoder,
    gkp_repetition_decoder,
    gkp_tms_decoder,
)
from gkpstab.modular import MODULAR_PERIOD
from gkpstab.montecarlo import (
    _CHUNK_ROWS,
    BLOCK_SIZE,
    TrialReport,
    _moment_sums,
    run,
)
from gkpstab.noise import IidNoiseModel, reshape_noise, sample_iid, stream_rng
from gkpstab.symplectic import inverse

_HISTOGRAM_FIELDS = ("bin_edges", "counts_q", "counts_p", "outside_q", "outside_p")


def test_deterministic_given_seed():
    code = gkp_repetition()
    dec = gkp_repetition_decoder()
    a = run(code, dec, 0.2, 30_000, seed=5)
    b = run(code, dec, 0.2, 30_000, seed=5)
    c = run(code, dec, 0.2, 30_000, seed=6)
    assert a.std_q == b.std_q and a.mean_p == b.mean_p
    assert np.array_equal(a.counts_q, b.counts_q)
    assert a.std_q != c.std_q


def test_shard_count_never_changes_results():
    code = gkp_repetition()
    dec = gkp_repetition_decoder()
    # straddle a block boundary so multiple blocks actually run
    n = BLOCK_SIZE + 12_345
    one = run(code, dec, 0.3, n, seed=9, shards=1)
    four = run(code, dec, 0.3, n, seed=9, shards=4)
    assert one.mean_q == four.mean_q
    assert one.std_p == four.std_p
    assert np.array_equal(one.counts_q, four.counts_q)
    assert np.array_equal(one.counts_p, four.counts_p)


def test_pool_bounded_by_block_count(monkeypatch):
    import gkpstab.montecarlo as montecarlo

    built = []
    pool_type = montecarlo.ThreadPoolExecutor

    def recording(max_workers):
        built.append(max_workers)
        return pool_type(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", recording)
    code, dec = gkp_repetition(), gkp_repetition_decoder()
    for n, workers in ((BLOCK_SIZE, []), (BLOCK_SIZE + 1, [2])):
        built.clear()
        many = run(code, dec, 0.3, n, seed=4, shards=8)
        assert built == workers
        one = run(code, dec, 0.3, n, seed=4, shards=1)
        for field in dataclasses.fields(TrialReport):
            a, b = getattr(many, field.name), getattr(one, field.name)
            if field.name in _HISTOGRAM_FIELDS:
                assert np.array_equal(a, b), field.name
            else:
                assert float(a).hex() == float(b).hex(), field.name


def _assert_same_report(a, b):
    for field in dataclasses.fields(TrialReport):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert type(x) is type(y), field.name
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y) and x.dtype == y.dtype, field.name
        elif x is not None:
            assert float(x).hex() == float(y).hex(), field.name


# the noisy-ancilla decoder is built once and shared by every sigma of a grid
_GRID_CODES = {
    "gkp-rep": (gkp_repetition(), gkp_repetition_decoder()),
    "gkp-tms-noisy": (gkp_tms(2.0, 0.05), Decoder.for_code(gkp_tms(2.0, 0.05), 0.2)),
}


@settings(max_examples=30)
@given(
    st.sampled_from(sorted(_GRID_CODES)),
    st.lists(st.floats(0.0, 0.6), min_size=1, max_size=4),
    st.integers(1, 3),
    # a lone trial, a one-row chunk tail, and a second block whose last
    # chunk is one row
    st.sampled_from([1, _CHUNK_ROWS + 1, BLOCK_SIZE + _CHUNK_ROWS + 1]),
    st.booleans(),
    st.integers(0, 2**16),
)
def test_a_sigma_grid_reports_what_each_lone_sigma_does(label, sigmas, shards, n, histogram,
                                                        seed):
    code, dec = _GRID_CODES[label]
    grid = run(code, dec, np.array(sigmas), n, seed, shards, histogram)
    assert isinstance(grid, list) and len(grid) == len(sigmas)
    for sigma, report in zip(sigmas, grid):
        _assert_same_report(report, run(code, dec, sigma, n, seed, shards, histogram))


def test_a_sigma_grid_draws_each_block_once_per_slice(monkeypatch):
    import gkpstab.montecarlo as montecarlo

    drawn = []
    stream = montecarlo.stream_rng

    def recording(seed, index):
        drawn.append(index)
        return stream(seed, index)

    monkeypatch.setattr(montecarlo, "stream_rng", recording)
    code, dec = gkp_repetition(), gkp_repetition_decoder()
    sigmas = [0.1, 0.2, 0.3, 0.4, 0.5]
    for shards, slices in ((1, 1), (2, 2), (8, 5)):
        drawn.clear()
        reports = run(code, dec, sigmas, BLOCK_SIZE + 1, seed=4, shards=shards, histogram=False)
        assert len(reports) == 5
        assert sorted(drawn) == [0] * slices + [1] * slices


def test_sigma_must_be_a_number_or_a_non_empty_1d_array():
    code, dec = gkp_repetition(), gkp_repetition_decoder()
    for bad in ([], np.zeros(0), np.full((2, 2), 0.1), [[0.1]]):
        with pytest.raises(ValueError, match="^sigma must be a number or a non-empty 1-D array"):
            run(code, dec, bad, 10, seed=1)
    with pytest.raises(ValueError, match="^sigma must be finite and nonnegative, got -0.1$"):
        run(code, dec, [0.1, -0.1], 10, seed=1)
    # a 0-d array is a lone sigma; a one-element array or list is a grid
    assert isinstance(run(code, dec, np.array(0.2), 10, seed=1), TrialReport)
    for one in ([0.2], np.array([0.2])):
        (report,) = run(code, dec, one, 10, seed=1)
        _assert_same_report(report, run(code, dec, 0.2, 10, seed=1))


def test_histogram_counts_complete():
    rep = run(gkp_repetition(), gkp_repetition_decoder(), 0.4, 70_000, seed=2)
    assert rep.counts_q.sum() == 70_000
    assert rep.counts_p.sum() == 70_000
    assert rep.bin_edges[0] == -rep.bin_edges[-1]


def test_outside_counts_equal_direct_count():
    code, dec, sigma, seed = gkp_repetition(), gkp_repetition_decoder(), 0.45, 3
    n = BLOCK_SIZE + 34_464
    rep = run(code, dec, sigma, n, seed, shards=2)
    edges = rep.bin_edges
    t_inv = inverse(code.encoder).matrix.T
    outside = [0, 0]
    counts = [0, 0]
    for index, start in enumerate(range(0, n, BLOCK_SIZE)):
        gen = stream_rng(seed, index)
        out = dec(gen.normal(0.0, sigma, (min(BLOCK_SIZE, n - start), 4)) @ t_inv, gen)
        for k, xi in enumerate((out.xi_q, out.xi_p)):
            outside[k] += int(np.count_nonzero((xi < edges[0]) | (xi > edges[-1])))
            counts[k] += np.histogram(np.clip(xi, edges[0], edges[-1]), bins=edges)[0]
    assert [rep.outside_q, rep.outside_p] == outside
    assert np.array_equal(rep.counts_q, counts[0])
    assert np.array_equal(rep.counts_p, counts[1])
    # the wrapped momenta reach past the pilot's six spreads
    assert rep.outside_p > 0


@pytest.mark.parametrize(
    "n",
    [
        1,
        _CHUNK_ROWS - 1,
        _CHUNK_ROWS,
        _CHUNK_ROWS + 1,
        2 * _CHUNK_ROWS + 1,
        BLOCK_SIZE,
        BLOCK_SIZE + 1,
    ],
    ids=[
        "one-trial",
        "chunk-less-one",
        "one-chunk",
        "chunk-then-one",
        "two-chunks-then-one",
        "full",
        "full-then-one",
    ],
)
@pytest.mark.parametrize(
    "code, sigma",
    [
        (gkp_repetition(), 0.3),
        (gkp_tms(4.806, 0.05), 0.1),
        (gkp_squeezed_repetition(3, 2.0, 0.05), 0.05),
        # lambda as in criterion 7; at seed 23 a lone row of its 10x10
        # reshape rounds apart from its batch at both one-row tails
        (gkp_squeezed_repetition(5, 0.08 * MODULAR_PERIOD / 0.05), 0.05),
        (gaussian_repetition(3), 0.2),
    ],
    ids=["gkp-rep", "gkp-tms-noisy", "squeezed-rep-noisy", "squeezed-rep-5", "gaussian-rep"],
)
def test_run_decodes_the_noise_module_draws(code, sigma, n):
    # block i decodes the one-shot iid draw of stream i reshaped by
    # reshape_noise, byte for byte, for blocks of one trial, of BLOCK_SIZE,
    # and of counts on either side of the edges of the row chunks that a
    # block is drawn in; each z is handed over with contiguous columns
    dec = Decoder.for_code(code, sigma)
    seen = []

    def capturing(z, rng):
        seen.append(z)
        return dec(z, rng)

    run(code, capturing, sigma, n, seed=23, histogram=False)
    model = IidNoiseModel(sigma, code.n_modes)
    counts = [min(BLOCK_SIZE, n - start) for start in range(0, n, BLOCK_SIZE)]
    assert [len(z) for z in seen] == counts
    for i, (z, count) in enumerate(zip(seen, counts)):
        want = reshape_noise(code.encoder, sample_iid(model, 23, count, i))
        assert z.shape == want.shape and z.tobytes() == want.tobytes(), i
        assert all(z[:, k].flags.c_contiguous for k in range(z.shape[1])), i


def test_a_block_holds_no_whole_raw_draw():
    # a squeezed-rep-5 block of BLOCK_SIZE trials keeps its 10 reshaped
    # quadratures (5 MiB) and the decoder's live reads; the block's whole
    # raw draw would add another 5 MiB
    sigma = 0.03
    lam = 0.08 * MODULAR_PERIOD / sigma
    code = gkp_squeezed_repetition(5, lam)
    dec = Decoder.for_code(code, sigma)
    run(code, dec, sigma, 100, seed=3, histogram=False)
    tracemalloc.start()
    try:
        run(code, dec, sigma, BLOCK_SIZE, seed=3, histogram=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.5 * 2**20, peak / 2**20


def test_a_grid_block_holds_one_raw_draw_more():
    # beside a lone sigma's peak, a block of several sigmas keeps its raw
    # draw (5 MiB for squeezed-rep-5), and no earlier sigma's outcome
    sigma = 0.03
    code = gkp_squeezed_repetition(5, 0.08 * MODULAR_PERIOD / sigma)
    dec = Decoder.for_code(code, sigma)
    sigmas = [sigma, 0.02, 0.01]
    run(code, dec, sigmas, 100, seed=3, histogram=False)
    tracemalloc.start()
    try:
        run(code, dec, sigmas, BLOCK_SIZE, seed=3, histogram=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14.0 * 2**20, peak / 2**20


@pytest.mark.parametrize(
    "code, sigma",
    [
        (gkp_repetition(), 0.3),
        (gkp_tms(4.806, 0.05), 0.1),
        (gkp_squeezed_repetition(3, 2.0, 0.05), 0.05),
    ],
    ids=["gkp-rep", "gkp-tms-noisy", "squeezed-rep-noisy"],
)
def test_histogram_off_keeps_every_moment_bit(code, sigma):
    dec = Decoder.for_code(code, sigma)
    n = BLOCK_SIZE + 5_000
    sizes = []

    def counted(z, rng):
        sizes.append(len(z))
        return dec(z, rng)

    on = run(code, dec, sigma, n, seed=17, shards=2)
    off = run(code, counted, sigma, n, seed=17, histogram=False)
    # the blocks alone are decoded: no pilot
    assert sizes == [BLOCK_SIZE, 5_000]
    for field in dataclasses.fields(TrialReport):
        if field.name in _HISTOGRAM_FIELDS:
            assert getattr(off, field.name) is None
            assert getattr(on, field.name) is not None
        else:
            a, b = getattr(on, field.name), getattr(off, field.name)
            assert float(a).hex() == float(b).hex(), field.name


def test_known_spreads_and_errors():
    sigma, n = 0.05, 200_000
    rep = run(gkp_repetition(), gkp_repetition_decoder(), sigma, n, seed=3)
    # far below threshold the wrap probability is negligible
    assert rep.std_q == pytest.approx(sigma / math.sqrt(2), rel=0.02)
    assert rep.std_p == pytest.approx(sigma, rel=0.02)
    assert rep.se_mean_q == pytest.approx(rep.std_q / math.sqrt(n), rel=1e-9)
    assert rep.se_std_q == pytest.approx(rep.std_q / math.sqrt(2 * n), rel=0.05)
    assert abs(rep.mean_q) < 5 * rep.se_mean_q
    assert abs(rep.mean_p) < 5 * rep.se_mean_p


def test_zero_noise_degenerates_cleanly():
    rep = run(gkp_repetition(), gkp_repetition_decoder(), 0.0, 5_000, seed=4)
    assert rep.std_q == 0.0 and rep.std_p == 0.0
    assert rep.se_std_q == 0.0


@pytest.mark.parametrize(
    "code, decoder, sigma, n, seed, law_sigma, quadrature, agrees",
    [
        (gkp_tms(3.0), gkp_tms_decoder(3.0, 0.15), 0.15, 400_000, 8, 0.15, "q", True),
        (gkp_tms(3.0), gkp_tms_decoder(3.0, 0.15), 0.15, 400_000, 8, 0.15 * 1.25, "q", False),
        (gkp_repetition(), gkp_repetition_decoder(), 0.2, 200_000, 10, 0.2, "q", True),
        (gkp_repetition(), gkp_repetition_decoder(), 0.2, 200_000, 10, 0.2, "p", True),
    ],
    ids=["gkp-tms-q", "gkp-tms-q-wrong-sigma", "gkp-rep-q", "gkp-rep-p"],
)
def test_histogram_and_moments_match_the_closed_form_law(
    code, decoder, sigma, n, seed, law_sigma, quadrature, agrees
):
    # Kolmogorov-Smirnov distance on the histogram grid below its 1 percent
    # level 1.63/sqrt(n), and both moments within 5 of their standard errors
    rep = run(code, decoder, sigma, n, seed=seed)
    law = single_read_laws(code, law_sigma)["qp".index(quadrature)]
    counts, mean, std, se_mean, se_var = (
        getattr(rep, f"{field}_{quadrature}")
        for field in ("counts", "mean", "std", "se_mean", "se_var")
    )
    empirical = np.concatenate([[0.0], np.cumsum(counts)]) / n
    ks = np.abs(empirical - law.cdf(rep.bin_edges)).max()
    z_mean = (mean - law.mean()) / se_mean
    z_var = (std * std - law.variance()) / se_var
    assert (ks < 1.63 / math.sqrt(n) and abs(z_mean) <= 5 and abs(z_var) <= 5) == agrees


def test_only_the_checks_integrate_numerically():
    # every law has closed cell sums; the one integration left is the
    # normalisation check's trapezoid rule, in numpy, so no module loads
    # scipy.integrate
    src = Path(__file__).resolve().parents[1] / "src" / "gkpstab"
    users = sorted(p.name for p in src.glob("*.py") if "scipy.integrate" in p.read_text())
    assert users == []


def test_gaussian_repetition_spreads():
    n_modes, sigma = 3, 0.2
    rep = run(
        gaussian_repetition(n_modes),
        gaussian_repetition_decoder(n_modes),
        sigma,
        200_000,
        seed=12,
    )
    assert rep.std_q == pytest.approx(sigma / math.sqrt(n_modes), rel=0.02)
    assert rep.std_p == pytest.approx(sigma * math.sqrt(n_modes), rel=0.02)


def test_invalid_arguments():
    code = gkp_repetition()
    dec = gkp_repetition_decoder()
    with pytest.raises(ValueError):
        run(code, dec, 0.1, 0, seed=1)
    with pytest.raises(ValueError):
        run(code, dec, 0.1, 100, seed=1, shards=0)
    with pytest.raises(ValueError):
        run(code, dec, -0.1, 100, seed=1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"shards": 1.5}, "shards must be an integer, got 1.5"),
        ({"shards": True}, "shards must be an integer, got True"),
        ({"n_trials": True}, "n_trials must be an integer, got True"),
        ({"n_trials": 10.0}, "n_trials must be an integer, got 10.0"),
        ({"n_trials": 0}, "n_trials must be >= 1, got 0"),
        ({"shards": np.int64(0)}, "shards must be >= 1, got 0"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        # without the pilot the block draws are the first to take the seed
        ({"seed": True, "histogram": False}, "seed must be an integer, got True"),
    ],
)
def test_counts_must_be_integers(kwargs, message):
    args = {"n_trials": 10, "seed": 1, "shards": 1, **kwargs}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(gkp_repetition(), gkp_repetition_decoder(), 0.3, **args)


def test_histogram_must_be_a_bool():
    # a truthy string used to bin anyway
    for bad in ("no", 1, None):
        message = f"histogram must be a bool, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(gkp_repetition(), gkp_repetition_decoder(), 0.3, 10, seed=1, histogram=bad)
    assert run(gkp_repetition(), gkp_repetition_decoder(), 0.3, 10, seed=1,
               histogram=np.False_).counts_q is None


def test_non_finite_sigma_rejected():
    for sigma in (math.nan, math.inf):
        with pytest.raises(ValueError):
            run(gkp_repetition(), gkp_repetition_decoder(), sigma, 100, seed=1)


def test_moment_sums_match_pow_form():
    gen = stream_rng(21, 0)
    for mean, std in ((0.0, 0.03), (0.0, 1.0), (5.0, 0.1), (-2.0, 3.0)):
        x = gen.normal(mean, std, BLOCK_SIZE)
        got = _moment_sums(x)
        want = np.array([x.sum(), (x * x).sum(), (x**3).sum(), (x**4).sum()])
        # the sums behind mean and std keep their exact bits
        assert got[:2].tobytes() == want[:2].tobytes()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_moment_sums_that_overflow_name_their_quadrature():
    # at lam = 1e45 the outputs reach ~1e89: x^4 overflowed, numpy warned,
    # and the report held nan standard errors
    code = gkp_squeezed_repetition(3, 1e45)
    with pytest.raises(ValueError, match=r"^quadrature q's outputs overflow their fourth-moment "
                                         r"sums: they reach 1\.\d+e\+89$"):
        run(code, Decoder.for_code(code, 0.05), 0.05, 100, seed=1, histogram=False)
    code = gkp_squeezed_repetition(3, 1e30)
    rep = run(code, Decoder.for_code(code, 0.05), 0.05, 100, seed=1, histogram=False)
    assert all(math.isfinite(getattr(rep, f)) for f in ("std_q", "std_p", "se_std_q", "se_std_p"))


def test_moments_that_overflow_in_the_summary_name_their_quadrature():
    # a lone output of 1e77 keeps its sums finite (x^4 = 1e308), but
    # 4 mean sum(x^3) / n in the summary passes the float range
    def decoder(z, rng):
        return DecodeOutcome(np.zeros(len(z)), np.full(len(z), 1e77))

    with pytest.raises(ValueError, match=r"^quadrature p's outputs overflow their fourth-moment "
                                         r"sums: they reach a root mean fourth power of 1e\+77$"):
        run(gaussian_repetition(2), decoder, 0.1, 1, seed=1, histogram=False)
