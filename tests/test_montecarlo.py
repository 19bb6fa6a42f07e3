import dataclasses
import math

import numpy as np
import pytest

from gkpstab.analytic import gkp_repetition_pdfs, tms_mixture
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
from gkpstab.montecarlo import BLOCK_SIZE, TrialReport, _moment_sums, compare, run
from gkpstab.noise import stream_rng
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


def test_compare_needs_a_histogram():
    sigma, gain = 0.15, 3.0
    rep = run(gkp_tms(gain), gkp_tms_decoder(gain, sigma), sigma, 2_000, seed=8,
              histogram=False)
    with pytest.raises(ValueError, match="no histogram"):
        compare(rep, tms_mixture(sigma, gain))


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


def test_compare_accepts_matching_mixture():
    sigma, gain = 0.15, 3.0
    code = gkp_tms(gain)
    rep = run(code, gkp_tms_decoder(gain, sigma), sigma, 400_000, seed=8)
    result = compare(rep, tms_mixture(sigma, gain), quadrature="q")
    assert result.passed
    assert result.ks_stat < result.ks_threshold
    assert abs(result.z_mean) < 5 and abs(result.z_var) < 5


def test_compare_rejects_wrong_model():
    sigma, gain = 0.15, 3.0
    code = gkp_tms(gain)
    rep = run(code, gkp_tms_decoder(gain, sigma), sigma, 400_000, seed=8)
    wrong = compare(rep, tms_mixture(sigma * 1.25, gain), quadrature="q")
    assert not wrong.passed


def test_compare_with_plain_density_callable():
    sigma = 0.2
    rep = run(gkp_repetition(), gkp_repetition_decoder(), sigma, 200_000, seed=10)
    q_model = lambda u: gkp_repetition_pdfs(u, sigma)[0]
    p_model = lambda u: gkp_repetition_pdfs(u, sigma)[1]
    assert compare(rep, q_model, quadrature="q").passed
    assert compare(rep, p_model, quadrature="p").passed


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
    rep = run(code, dec, 0.1, 1000, seed=1)
    with pytest.raises(ValueError):
        compare(rep, tms_mixture(0.1, 2.0), quadrature="x")


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
