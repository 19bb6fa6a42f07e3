import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gkpstab.analytic import single_read_laws
from gkpstab.codes import (
    gaussian_repetition,
    gkp_repetition,
    gkp_squeezed_repetition,
    gkp_tms,
)
from gkpstab.decoders import (
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
