import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.special import ndtr

from gkpstab.analytic import (
    MixturePdf,
    _n_max,
    cell_masses,
    gaussian_pdf,
    gkp_repetition_stds,
    single_read_laws,
    tms_asymptotic_optimum,
    tms_variance,
    tms_variance_erfc_approx,
    tms_variance_noisy_gkp,
)
from gkpstab.codes import (
    CodeSpec,
    gaussian_repetition,
    gkp_repetition,
    gkp_squeezed_repetition,
    gkp_tms,
)
from gkpstab.decoders import Decoder
from gkpstab.modular import MODULAR_PERIOD, centered_mod
from gkpstab.montecarlo import run
from gkpstab.noise import stream_rng
from gkpstab.symplectic import SymplecticTransform, compose, sum_gate

ROOT_2PI = MODULAR_PERIOD


def test_gaussian_pdf_matches_closed_form():
    x = np.linspace(-2, 2, 9)
    want = np.exp(-(x**2) / (2 * 0.09)) / math.sqrt(2 * math.pi * 0.09)
    assert np.allclose(gaussian_pdf(x, 0.3), want)


def test_gaussian_pdf_rejects_bad_width():
    for sigma in (0.0, -0.1, math.nan, math.inf, np.array([0.2, math.nan])):
        with pytest.raises(ValueError, match="^sigma must be finite and positive, got"):
            gaussian_pdf(0.5, sigma)


def test_cell_masses_normalized_and_symmetric():
    for sigma in (0.1, 0.4, 1.0):
        ns, w = cell_masses(sigma)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0)
        mid = np.where(ns == 0)[0][0]
        assert np.allclose(w, w[::-1], atol=1e-15)
        assert w[mid] == w.max()


def test_mixture_pdf_validation():
    with pytest.raises(ValueError):
        MixturePdf(np.array([0.7, 0.2]), np.array([0.0, 1.0]), 0.1)
    with pytest.raises(ValueError):
        MixturePdf(np.array([1.2, -0.2]), np.array([0.0, 1.0]), 0.1)
    for base_sigma in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="base_sigma must be finite"):
            MixturePdf(np.array([0.5, 0.5]), np.array([0.0, 1.0]), base_sigma)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mixture_pdf_rejects_non_finite_shifts(bad):
    with pytest.raises(ValueError, match=f"^shifts must be finite, got {bad}$"):
        MixturePdf(np.ones(1), np.array([bad]), 1.0)
    with pytest.raises(ValueError, match=f"^shifts must be finite, got {bad}$"):
        MixturePdf(np.full(3, 1 / 3), np.array([0.0, bad, math.nan]), 1.0)


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: tms_variance(0.1, 1e20), "sigma=0.1, sigma_gkp=0.0, gain=1e+20"),
        (lambda: tms_variance(0.1, np.array([2.0, 1e20])),
         "sigma=0.1, sigma_gkp=0.0, gain=1e+20"),
        (lambda: tms_variance_noisy_gkp(np.array([0.2, 0.1]), 0.05, 1e20),
         "sigma=0.2, sigma_gkp=0.05, gain=1e+20"),
        (lambda: gkp_repetition_stds(1e10), "sigma=10000000000.0, sigma_gkp=0.0"),
        (lambda: cell_masses(1e10), "sigma=10000000000.0"),
    ],
)
def test_lattice_size_is_bounded(monkeypatch, call, named):
    # the sizing check must come first: a lattice past the bound would
    # ask for tens of GB, so both the sizing and the edges are guarded here
    import gkpstab.analytic as analytic

    n_max, cells = analytic._n_max, analytic._cells

    def sized(spread, **inputs):
        out = n_max(spread, **inputs)
        assert (np.asarray(out) <= 10**6).all(), "lattice sized past the bound"
        return out

    def built(spread, n):
        assert n <= 10**6, "lattice built past the bound"
        return cells(spread, n)

    monkeypatch.setattr(analytic, "_n_max", sized)
    monkeypatch.setattr(analytic, "_cells", built)
    with pytest.raises(ValueError, match=f"^{re.escape(named)} needs .* lattice cells"):
        call()


def test_mixture_moments_match_quadrature():
    mix = single_read_laws(gkp_tms(2.0), 0.3)[0]
    reach = float(np.abs(mix.shifts).max() + 10 * mix.base_sigma)
    norm, _ = quad(mix.pdf, -reach, reach, points=list(mix.shifts), limit=200)
    second, _ = quad(
        lambda u: u * u * mix.pdf(u), -reach, reach, points=list(mix.shifts), limit=200
    )
    assert norm == pytest.approx(1.0, abs=1e-9)
    assert mix.mean() == pytest.approx(0.0, abs=1e-12)
    assert mix.variance() == pytest.approx(second, rel=1e-9)


def test_mixture_cdf_properties():
    mix = single_read_laws(gkp_tms(3.0), 0.2)[0]
    xs = np.linspace(-4, 4, 41)
    cdf = mix.cdf(xs)
    assert np.all(np.diff(cdf) >= 0)
    assert mix.cdf(50.0) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(mix.cdf(-xs) + cdf, 1.0, atol=1e-12)


def test_mixture_keeps_input_shape():
    mix = single_read_laws(gkp_tms(2.0), 0.1)[0]
    for fn in (mix.pdf, mix.cdf):
        for x in (0.3, np.float64(0.3), np.array(0.3)):
            assert type(fn(x)) is float
        for shape in ((1,), (2, 3), (0,)):
            out = fn(np.full(shape, 0.3))
            assert isinstance(out, np.ndarray) and out.shape == shape
    for law in single_read_laws(gkp_repetition(), 0.2):
        assert law.pdf(np.full((1, 1), 0.1)).shape == (1, 1)


def test_tms_mixture_structure():
    """Component shifts sit on the rescaled wrap lattice and the base
    width is the conditional residual sigma/sqrt(2G-1)."""
    sigma, gain = 0.15, 3.0
    mix = single_read_laws(gkp_tms(gain), sigma)[0]
    c = 2.0 * math.sqrt(gain * (gain - 1.0)) / (2.0 * gain - 1.0)
    spacing = c * ROOT_2PI
    steps = np.diff(np.sort(mix.shifts))
    assert np.allclose(steps, spacing, atol=1e-12)
    assert mix.base_sigma == pytest.approx(sigma / math.sqrt(2 * gain - 1), rel=1e-12)


def test_tms_mixture_unit_gain():
    mix = single_read_laws(gkp_tms(1.0), 0.25)[0]
    assert len(mix.weights) == 1
    assert mix.variance() == pytest.approx(0.0625, rel=1e-12)


def test_tms_variance_reference_value():
    # frozen from an independent quadrature evaluation
    assert tms_variance(0.1, 4.806) == pytest.approx(1.281907e-3, rel=1e-5)


def test_tms_variance_matches_mixture_route():
    for sigma, gain in ((0.05, 8.0), (0.1, 4.806), (0.3, 2.0), (0.5, 1.3)):
        direct = tms_variance(sigma, gain)
        law = single_read_laws(gkp_tms(gain), sigma)[0]
        assert law.variance() == pytest.approx(direct, rel=1e-10)


def test_tms_variance_monte_carlo_oracle():
    """Simulate the estimator from raw normals, bypassing the package's
    symplectic and decoding layers entirely."""
    sigma, gain = 0.2, 3.0
    n = 2_000_000
    gen = stream_rng(31, 0)
    xi1 = gen.normal(0.0, sigma, n)
    xi2 = gen.normal(0.0, sigma, n)
    cg, sg = math.sqrt(gain), math.sqrt(gain - 1.0)
    z1 = cg * xi1 - sg * xi2
    z2 = -sg * xi1 + cg * xi2
    c = 2.0 * sg * cg * sigma**2 / ((2 * gain - 1) * sigma**2)
    est = z1 + c * centered_mod(z2)
    mc_var = float(np.var(est))
    se = mc_var * math.sqrt(2.0 / n) * 2.0
    assert abs(tms_variance(sigma, gain) - mc_var) < 4 * se


def test_tms_erfc_approx_tracks_exact():
    """Keeping only the first wrap cell is essentially exact below the
    threshold noise; the truncation error grows with sigma."""
    errs = []
    for sigma, gain in ((0.1, 4.806), (0.3, 2.0), (0.6, 1.15)):
        exact = tms_variance(sigma, gain)
        approx = tms_variance_erfc_approx(sigma, gain)
        assert approx == pytest.approx(exact, rel=1e-5)
        errs.append(abs(approx / exact - 1.0))
    assert errs[0] < errs[1] < errs[2]


def test_tms_asymptotic_optimum_reference():
    gain, sigma_l = tms_asymptotic_optimum(0.1)
    assert gain == pytest.approx(4.337092340219487, rel=1e-10)
    assert sigma_l == pytest.approx(0.03609806119380331, rel=1e-10)
    with pytest.raises(ValueError):
        tms_asymptotic_optimum(2.0)
    for sigma in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="sigma must be finite"):
            tms_asymptotic_optimum(sigma)


def test_noisy_gkp_reduces_to_ideal():
    # at sigma_gkp = 0 every factor of 1 + q is exactly one, so the noisy
    # variance keeps the ideal one's bits, over several lattice sizes and G = 1
    for sigma, gain in ((0.05, 8.0), (0.1, 4.806), (0.3, 1.5)):
        assert tms_variance_noisy_gkp(sigma, 0.0, gain) == tms_variance(sigma, gain)
    sigmas = np.array([[0.02], [0.1], [0.3], [0.6], [0.9]])
    gains = np.array([1.0, 1.5, 4.806, 20.0, 200.0])
    spreads = np.sqrt(2.0 * gains - 1.0) * sigmas
    assert np.unique(_n_max(spreads)).size > 2
    ideal = tms_variance(sigmas, gains)
    assert tms_variance_noisy_gkp(sigmas, 0.0, gains).tobytes() == ideal.tobytes()


def test_noisy_gkp_monte_carlo_oracle():
    """Same raw-normal simulation, now with measurement noise on the
    modular syndrome."""
    sigma, sigma_gkp, gain = 0.1, 0.0223606797749979, 4.76
    n = 2_000_000
    gen = stream_rng(31, 1)
    xi1 = gen.normal(0.0, sigma, n)
    xi2 = gen.normal(0.0, sigma, n)
    eta = gen.normal(0.0, math.sqrt(2.0) * sigma_gkp, n)
    cg, sg = math.sqrt(gain), math.sqrt(gain - 1.0)
    z1 = cg * xi1 - sg * xi2
    z2 = -sg * xi1 + cg * xi2
    c = 2.0 * sg * cg * sigma**2 / ((2 * gain - 1) * sigma**2 + 2 * sigma_gkp**2)
    est = z1 + c * centered_mod(z2 + eta)
    mc_var = float(np.var(est))
    se = mc_var * math.sqrt(2.0 / n) * 2.0
    assert abs(tms_variance_noisy_gkp(sigma, sigma_gkp, gain) - mc_var) < 4 * se


def test_noisy_gkp_monotone_in_ancilla_noise():
    vals = [tms_variance_noisy_gkp(0.1, s, 4.8) for s in (0.0, 0.02, 0.05, 0.1)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_gkp_repetition_pdfs_normalized_and_even():
    for sigma in (0.1, 0.3, 0.5):
        half = ROOT_2PI / 2
        reach = 4 * half + 8 * sigma
        laws = single_read_laws(gkp_repetition(), sigma)
        for law, centers in zip(laws, (half, ROOT_2PI)):
            pts = [n * centers for n in range(-4, 5) if abs(n * centers) < reach]
            norm, _ = quad(law.pdf, -reach, reach, points=pts, limit=200)
            assert norm == pytest.approx(1.0, abs=1e-8)
            assert law.pdf(0.37) == pytest.approx(law.pdf(-0.37), rel=1e-12)


def test_gkp_repetition_stds_reference_values():
    assert gkp_repetition_stds(0.1) == pytest.approx((0.1 / math.sqrt(2), 0.1), rel=1e-6)
    std_q, std_p = gkp_repetition_stds(0.3)
    assert std_q == pytest.approx(0.223441, abs=2e-6)
    assert std_p == pytest.approx(0.300308, abs=2e-6)
    std_q, std_p = gkp_repetition_stds(0.5)
    assert std_q == pytest.approx(0.494856, abs=2e-6)
    assert std_p == pytest.approx(0.571476, abs=2e-6)


def test_gkp_repetition_variances_closed_form():
    """Independent route: lattice-cell masses give the variances as
    sigma^2/2 + (pi/2) sum n^2 w_n and sigma^2 + 2 pi sum n^2 w_n."""
    for sigma in (0.1, 0.3, 0.5):
        ns = np.arange(-40, 41)
        hi = (ns + 0.5) * ROOT_2PI
        lo = (ns - 0.5) * ROOT_2PI
        w_q = ndtr(hi / (math.sqrt(2) * sigma)) - ndtr(lo / (math.sqrt(2) * sigma))
        w_p = ndtr(hi / sigma) - ndtr(lo / sigma)
        var_q = sigma**2 / 2 + (math.pi / 2) * float((ns**2 * w_q).sum())
        var_p = sigma**2 + 2 * math.pi * float((ns**2 * w_p).sum())
        std_q, std_p = gkp_repetition_stds(sigma)
        assert std_q == pytest.approx(math.sqrt(var_q), rel=1e-8)
        assert std_p == pytest.approx(math.sqrt(var_p), rel=1e-8)


def test_gkp_repetition_stds_keep_their_bits():
    # the fig3 digest pins 12 significant digits; these pin every bit
    want = {
        0.1: ("0x1.21a1851ff630bp-4", "0x1.999999999999ap-4"),
        0.3: ("0x1.c99b766e57d54p-3", "0x1.3383fdaf65583p-2"),
        0.5: ("0x1.fabb8a2e43a89p-2", "0x1.249886116751ap-1"),
    }
    for sigma, hexes in want.items():
        assert tuple(std.hex() for std in gkp_repetition_stds(sigma)) == hexes, sigma


def test_gkp_repetition_stds_frozen_sampling_references():
    # reference points from an independent 10^7-sample run
    std_q, std_p = gkp_repetition_stds(0.3)
    assert std_q == pytest.approx(0.223497, abs=2e-4)
    assert std_p == pytest.approx(0.300333, abs=2e-4)
    std_q, std_p = gkp_repetition_stds(0.5)
    assert std_q == pytest.approx(0.494714, abs=1e-3)
    assert std_p == pytest.approx(0.571814, abs=1e-3)


@settings(max_examples=60)
@given(
    sigma=st.floats(0.001, 0.9),
    gain=st.floats(1.0, 600.0),
    sigma_gkp=st.one_of(st.just(0.0), st.floats(0.0, 0.1)),
)
def test_single_read_laws_give_the_noisy_tms_variance(sigma, gain, sigma_gkp):
    # the law derived from the code's rows and decoder weights against the
    # closed form of the two-mode squeezing code
    want = tms_variance_noisy_gkp(sigma, sigma_gkp, gain)
    for law in single_read_laws(gkp_tms(gain, sigma_gkp), sigma):
        assert law.variance() == pytest.approx(want, rel=1e-12, abs=0.0)


def test_single_read_laws_of_noisy_gkp_repetition_match_sampling():
    # GKP repetition with noisy ancillas has no closed form of its own
    code = gkp_repetition(0.05)
    for sigma in (0.1, 0.2, 0.3):
        law_q, law_p = single_read_laws(code, sigma)
        rep = run(code, Decoder.for_code(code, sigma), sigma, 10**6, seed=41, histogram=False)
        assert abs(rep.std_q**2 - law_q.variance()) < 3 * rep.se_var_q, sigma
        assert abs(rep.std_p**2 - law_p.variance()) < 3 * rep.se_var_p, sigma


def test_single_read_laws_of_squeezed_repetition_match_sampling():
    # two-mode squeezed repetition reads one ancilla quadrature per data
    # quadrature; at these sigma wraps are common enough for the SE to hold
    for sigma_gkp in (0.0, 0.05):
        code = gkp_squeezed_repetition(2, 2.0, sigma_gkp)
        for sigma in (0.2, 0.3):
            law_q, law_p = single_read_laws(code, sigma)
            rep = run(code, Decoder.for_code(code, sigma), sigma, 10**6, seed=41, histogram=False)
            assert abs(rep.std_q**2 - law_q.variance()) < 3 * rep.se_var_q, (sigma_gkp, sigma)
            assert abs(rep.std_p**2 - law_p.variance()) < 3 * rep.se_var_p, (sigma_gkp, sigma)


def test_single_read_laws_of_unwrapped_quadratures_are_gaussian():
    # the exact read of two-mode Gaussian repetition, and a data momentum
    # that no read corrects, leave one Gaussian each
    law_q, law_p = single_read_laws(gaussian_repetition(2), 0.2)
    assert law_q.weights.size == law_p.weights.size == 1
    assert law_q.variance() == pytest.approx(0.02, rel=1e-12)
    assert law_p.variance() == pytest.approx(0.08, rel=1e-12)


def test_single_read_laws_reject_chained_reads():
    # a position shear on the ancilla correlates its two reads: each data
    # quadrature still has one weight, but the momentum read feeds forward
    # the position read, whose wraps then shift the momentum output too
    shear = np.eye(4)
    shear[2, 3] = 0.7
    fed = CodeSpec(compose(SymplecticTransform(shear), sum_gate(2, 1, 2)), 1)
    for code, problem in (
        (fed, "without feed-forward"),
        (gkp_squeezed_repetition(3, 2.0), "without feed-forward"),
        (gaussian_repetition(3), "at most one read"),
    ):
        with pytest.raises(ValueError, match=f"single_read_laws needs .*{problem}"):
            single_read_laws(code, 0.1)
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        single_read_laws(gkp_tms(2.0), 0.0)


# the three variances as functions of (sigma, sigma_gkp, gain)
_VARIANCES = {
    "exact": lambda s, t, g: tms_variance(s, g),
    "erfc_approx": lambda s, t, g: tms_variance_erfc_approx(s, g),
    "noisy_gkp": lambda s, t, g: tms_variance_noisy_gkp(s, t, g),
}


@pytest.mark.parametrize("name", sorted(_VARIANCES))
@settings(max_examples=60)
@given(
    sigma=st.floats(0.005, 0.9),
    sigma_gkp=st.floats(0.0, 0.3),
    fractions=hnp.arrays(np.float64, st.integers(0, 40), elements=st.floats(0.0, 1.0)),
)
def test_gain_array_equals_scalar_calls_bitwise(name, sigma, sigma_gkp, fractions):
    # gains from G = 1 to the top of the optimiser's grid, which always
    # spans more than one lattice size
    top = max(2.0, math.pi / (2.0 * sigma * sigma))
    gains = np.concatenate([[1.0, top], 1.0 + (top - 1.0) * fractions])
    assert len(set(_n_max(np.sqrt(2.0 * gains - 1.0) * sigma))) > 1
    f = _VARIANCES[name]
    got = f(sigma, sigma_gkp, gains)
    want = np.array([f(sigma, sigma_gkp, float(g)) for g in gains])
    assert got.shape == gains.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60)
@given(st.floats(0.005, 0.9), st.lists(st.floats(0.0, 1.0), max_size=20))
def test_tms_variance_equals_one_dimensional_sum_bitwise(sigma, fractions):
    # reference: the lone-gain form sigma^2 / (2G - 1) + w @ (mu * mu) over
    # the public cell masses, which the array reduction must reproduce
    top = max(2.0, math.pi / (2.0 * sigma * sigma))
    gains = [1.0, top] + [1.0 + (top - 1.0) * f for f in fractions]
    for gain in gains:
        two_g = 2.0 * gain - 1.0
        ns, w = cell_masses(math.sqrt(two_g) * sigma)
        mu = (2.0 * math.sqrt(gain * (gain - 1.0)) / two_g) * ROOT_2PI * ns
        want = sigma * sigma / two_g + float(w @ (mu * mu))
        assert tms_variance(sigma, gain) == want
    assert tms_variance(sigma, np.array(gains)).tolist() == [
        tms_variance(sigma, g) for g in gains
    ]


@pytest.mark.parametrize("name", sorted(_VARIANCES))
def test_gain_array_shape_contract(name):
    f = _VARIANCES[name]
    scalar = f(0.2, 0.05, 3.0)
    assert type(scalar) is float
    assert type(f(0.2, 0.05, np.float64(3.0))) is float
    assert type(f(0.2, 0.05, np.array(3.0))) is float
    grid = np.geomspace(1.0, 40.0, 12).reshape(3, 4)
    out = f(0.2, 0.05, grid)
    assert isinstance(out, np.ndarray) and out.shape == (3, 4)
    assert out[1, 2] == f(0.2, 0.05, float(grid[1, 2]))
    assert f(0.2, 0.05, [1.0, 3.0]).shape == (2,)
    assert f(0.2, 0.05, [1.0, 3.0])[1] == scalar
    for shape in ((0,), (3, 0)):
        assert f(0.2, 0.05, np.ones(shape)).shape == shape


@pytest.mark.parametrize("name", sorted(_VARIANCES))
@settings(max_examples=30)
@given(
    sigmas=st.lists(st.floats(0.005, 0.9), min_size=1, max_size=6),
    sigma_gkp=st.sampled_from([0.0, 0.0125, 0.05]),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=6),
)
def test_sigma_array_equals_lone_calls_bytewise(name, sigmas, sigma_gkp, fractions):
    # a column of sigmas against a row of gains per sigma, from G = 1 to
    # the top of the optimiser's grid: every pair is a lone call
    s = np.array(sigmas)[:, None]
    top = np.maximum(2.0, math.pi / (2.0 * s * s))
    gains = np.hstack([np.ones_like(s), top, 1.0 + (top - 1.0) * np.array([fractions])])
    assert len(set(_n_max(np.sqrt(2.0 * gains - 1.0) * s).ravel())) > 1
    f = _VARIANCES[name]
    want = np.array(
        [[f(float(si), sigma_gkp, float(g)) for g in row] for si, row in zip(s[:, 0], gains)]
    )
    got = f(s, sigma_gkp, gains)
    assert got.shape == gains.shape
    assert got.tobytes() == want.tobytes()
    # one gain per sigma, as each step of the lockstep search asks
    assert f(s[:, 0], sigma_gkp, gains[:, 1]).tobytes() == want[:, 1].tobytes()


@pytest.mark.parametrize("name", sorted(_VARIANCES))
def test_sigma_array_shape_contract(name):
    f = _VARIANCES[name]
    out = f(np.array([[0.1], [0.3]]), 0.05, np.array([1.5, 2.0, 3.0]))
    assert out.shape == (2, 3)
    assert out[1, 0] == f(0.3, 0.05, 1.5)
    assert type(f(np.array(0.3), 0.05, 2.0)) is float
    one = f(np.array([0.3]), 0.05, 2.0)
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert one[0] == f(0.3, 0.05, 2.0)
    for shape in ((0,), (2, 0)):
        assert f(np.full(shape, 0.2), 0.05, 2.0).shape == shape
        assert f(np.full(shape, 0.2), 0.05, np.ones(shape)).shape == shape


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_sigma_arrays_name_their_first_bad_element(bad):
    # the second bad element, -1.0, is never the one named
    sigmas = np.array([[0.1, bad], [0.2, -1.0]])
    for f in _VARIANCES.values():
        with pytest.raises(ValueError, match=f"^sigma must be finite and positive, got {bad}$"):
            f(sigmas, 0.05, np.array([2.0, 3.0]))


_NOISELESS = r"^sigma must be finite and positive, got 0\.0$"


def test_noisy_sigma_array_with_noiseless_rows():
    # a zero element of a sigma array broadcast against gains is refused
    # like its siblings refuse it, not given a row of zeros
    for sigma_gkp in (0.0, 0.05, 1e6):
        with pytest.raises(ValueError, match=_NOISELESS):
            tms_variance_noisy_gkp(np.array([0.2, 0.0, 0.4]), sigma_gkp, np.array([[2.0], [5.0]]))


def test_noiseless_channel_gives_zero_of_gain_shape():
    # sigma = 0 no longer gives zeros of the gain's shape: every shape is refused
    for gain in (2.0, np.ones((2, 3)), np.ones((0,))):
        with pytest.raises(ValueError, match=_NOISELESS):
            tms_variance_noisy_gkp(0.0, 0.1, gain)


def test_noiseless_channel_is_zero_at_any_ancilla_noise():
    # sigma = 0 is refused at every ancilla noise, before any lattice is sized
    for sigma_gkp in (0.0, 0.05, 1e6):
        with pytest.raises(ValueError, match=_NOISELESS):
            tms_variance_noisy_gkp(0.0, sigma_gkp, 2.0)


def test_noisy_failure_names_the_row_sigma(monkeypatch):
    import gkpstab.analytic as analytic

    sums = analytic._lattice_sums

    def poisoned(spread, step, **named):
        # the row of sigma = 0.3 alone has a spread above 0.5 at G = 2
        out = sums(spread, step, **named)
        return np.where(spread > 0.5, np.nan, out)

    monkeypatch.setattr(analytic, "_lattice_sums", poisoned)
    with pytest.raises(ArithmeticError, match=r"sigma=0\.3, sigma_gkp=0\.05, gain=2\.0$"):
        tms_variance_noisy_gkp(np.array([0.1, 0.3, 0.2]), 0.05, 2.0)


def test_noisy_variance_where_sigma_squared_is_lost():
    # at sigma = 1e-170, 1 + q overflows and its q -> inf limit (2G - 1)
    # sigma^2 underflows to zero; at 1e-150, 1 + q is finite and keeps its bits
    sigmas = np.array([1e-170, 1e-150, 0.1])
    with np.errstate(all="raise"):
        lone = [tms_variance_noisy_gkp(float(s), 0.05, 2.0) for s in sigmas]
        together = tms_variance_noisy_gkp(sigmas, 0.05, 2.0)
    assert lone[0] == 0.0
    assert lone[1] == float.fromhex("0x1.01297d23ab683p-995")
    assert lone[1] == pytest.approx(3.0 * 1e-300, rel=1e-12, abs=0.0)
    assert together.tolist() == lone


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_variances_reject_non_finite_input(bad):
    calls = [
        (lambda: tms_variance(0.1, bad), "gain"),
        (lambda: tms_variance(0.1, np.array([2.0, bad, 3.0])), "gain"),
        (lambda: tms_variance(bad, 2.0), "sigma"),
        (lambda: tms_variance_erfc_approx(0.1, bad), "gain"),
        (lambda: tms_variance_erfc_approx(bad, 2.0), "sigma"),
        (lambda: tms_variance_noisy_gkp(0.1, 0.05, bad), "gain"),
        (lambda: tms_variance_noisy_gkp(0.1, 0.05, [[2.0], [bad]]), "gain"),
        (lambda: tms_variance_noisy_gkp(bad, 0.05, 2.0), "sigma"),
        (lambda: tms_variance_noisy_gkp(0.1, bad, 2.0), "sigma_gkp"),
        (lambda: single_read_laws(gkp_tms(bad), 0.1), "gain"),
        (lambda: single_read_laws(gkp_tms(2.0), bad), "sigma"),
        (lambda: cell_masses(bad), "sigma"),
    ]
    for call, name in calls:
        with pytest.raises(ValueError, match=f"{name} must be finite.*got {bad}"):
            call()


@given(st.floats(1e-3, 3.0))
def test_cell_masses_exactly_symmetric_and_normalised(sigma):
    # sigma covers the spreads the variances use, sigma up to sqrt(2G - 1)
    # times the channel noise at the top of the gain grid
    ns, w = cell_masses(sigma)
    assert np.array_equal(ns, -ns[::-1])
    assert w.tobytes() == w[::-1].tobytes()
    assert abs(w.sum() - 1.0) <= 1e-10
