import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkpstab.analytic import tms_variance
from gkpstab.codes import (
    CodeSpec,
    gaussian_repetition,
    gkp_repetition,
    gkp_squeezed_repetition,
    gkp_tms,
    gkp_tms_pair,
)
from gkpstab.decoders import (
    Decoder,
    gaussian_repetition_decoder,
    gkp_repetition_decoder,
    gkp_squeezed_repetition_decoder,
    gkp_tms_decoder,
)
from gkpstab.modular import centered_mod, modular_measure
from gkpstab.montecarlo import run
from gkpstab.noise import reshape_noise, stream_rng
from gkpstab.symplectic import (
    beam_splitter,
    compose,
    inverse,
    single_mode_squeeze,
    sum_gate,
    two_mode_squeeze,
)

# the acceptance suite's seed
SEED = 20260823
# GKP repetition's weights: no feed-forward, then c_q and c_p
_GKP_REP_WEIGHTS = ((0.0, 0.0), (0.0, 0.0), (-0.5, 0.0), (0.0, 1.0))


def _tms_weight(gain, sigma, sigma_gkp):
    """Closed-form MMSE weight magnitude of the two-mode squeezing code."""
    num = 2.0 * math.sqrt(gain * (gain - 1.0)) * sigma**2
    return num / ((2.0 * gain - 1.0) * sigma**2 + 2.0 * sigma_gkp**2)


def _lstsq_residual(code, row):
    """Row `row` of S^{-1} less its least-squares projection onto the
    ancilla rows: the linear residual of noiseless GKP ancillas, whose
    every quadrature is read."""
    t = inverse(code.encoder).matrix
    ancillas = t[2 * code.data_modes :]
    x = np.linalg.lstsq(ancillas.T, t[row], rcond=None)[0]
    return t[row] - ancillas.T @ x


def test_gaussian_repetition_small_noise_algebra():
    """Averaged syndromes leave the mean position noise and pile the
    ancilla momentum noise onto the data mode."""
    n = 3
    code = gaussian_repetition(n)
    gen = stream_rng(21, 0)
    xi = gen.normal(0.0, 0.2, (500, 2 * n))
    dec = gaussian_repetition_decoder(n)
    # exact reads need no feed-forward: it folds into the weights
    assert not dec.weights[:-2].any()
    out = dec(reshape_noise(code.encoder, xi), None)
    assert np.allclose(out.xi_q, xi[:, 0::2].mean(axis=1), atol=1e-12)
    assert np.allclose(out.xi_p, xi[:, 1::2].sum(axis=1), atol=1e-12)


def test_gaussian_repetition_rejects_bad_width():
    with pytest.raises(ValueError):
        gaussian_repetition_decoder(2)(np.zeros((4, 6)), None)


def test_gkp_repetition_small_noise_is_symmetrized():
    """Below the wrap threshold the estimate averages the two position
    noises and cancels the ancilla momentum exactly."""
    code = gkp_repetition()
    gen = stream_rng(21, 1)
    xi = gen.normal(0.0, 0.05, (1000, 4))
    out = gkp_repetition_decoder()(reshape_noise(code.encoder, xi), None)
    assert np.allclose(out.xi_q, 0.5 * (xi[:, 0] + xi[:, 2]), atol=1e-12)
    assert np.allclose(out.xi_p, xi[:, 1], atol=1e-12)


def test_gkp_repetition_weights_are_exact():
    dec = gkp_repetition_decoder()
    assert dec.columns == (2, 3)
    assert dec.weights.tolist() == [[0.0, 0.0], [0.0, 0.0], [-0.5, 0.0], [0.0, 1.0]]


def test_gkp_repetition_zero_noise():
    out = gkp_repetition_decoder()(np.zeros(4), None)
    assert out.xi_q == 0.0 and out.xi_p == 0.0


def test_gkp_repetition_noisy_ancilla_reproducible():
    z = stream_rng(21, 2).normal(0.0, 0.3, (50, 4))
    dec = Decoder.for_code(gkp_repetition(0.1), 0.3)
    a = dec(z, 5)
    b = dec(z, 5)
    c = dec(z, 6)
    assert np.array_equal(a.xi_q, b.xi_q) and np.array_equal(a.xi_p, b.xi_p)
    assert not np.array_equal(a.xi_q, c.xi_q)


@pytest.mark.parametrize(
    "rng, message",
    [
        (True, "rng must be an integer, got True"),
        (-1, "rng must be >= 0, got -1"),
        (1.5, "rng must be an integer, got 1.5"),
    ],
)
@pytest.mark.parametrize("sigma_gkp", [0.0, 0.1])
def test_decoder_rejects_a_bad_rng(rng, message, sigma_gkp):
    dec = Decoder.for_code(gkp_repetition(sigma_gkp), 0.3)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dec(np.zeros((5, 4)), rng)


def test_mmse_ideal_limit():
    dec = gkp_tms_decoder(2.0, 0.1)
    c_q, c_p = dec.weights[-2:]
    assert c_p[1] == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, rel=1e-12, abs=0)
    assert c_q[0] == pytest.approx(-c_p[1], rel=1e-12, abs=0)
    assert c_q[1] == 0.0 and c_p[0] == 0.0


def test_mmse_magnitude_below_one():
    """The derived weights equal the closed form, whose magnitude is below one."""
    gen = stream_rng(21, 3)
    cases = [(4.806, 0.1, s) for s in (0.0, 0.0125, 0.05)]
    for _ in range(300):
        cases.append((1.0 + gen.uniform(0.0, 30.0), gen.uniform(0.0, 1.0),
                      gen.uniform(0.0, 0.3)))
    for gain, sigma, sigma_gkp in cases:
        dec = gkp_tms_decoder(gain, sigma, sigma_gkp)
        c = _tms_weight(gain, sigma, sigma_gkp)
        assert dec.weights[-1, 1] == pytest.approx(c, rel=1e-12, abs=0)
        assert dec.weights[-2, 0] == pytest.approx(-c, rel=1e-12, abs=0)
        assert abs(dec.weights[-1, 1]) < 1.0


def test_mmse_trivial_gain_measures_nothing():
    dec = gkp_tms_decoder(1.0, 0.3)
    assert not dec.weights.any()


def test_mmse_validation():
    with pytest.raises(ValueError):
        gkp_tms_decoder(0.5, 0.1)
    with pytest.raises(ValueError):
        gkp_tms_decoder(2.0, -0.1)


def test_gkp_tms_small_noise_linearization():
    """Without wraps the decoder is the linear MMSE estimator."""
    gain, sigma = 3.0, 0.02
    code = gkp_tms(gain)
    gen = stream_rng(21, 4)
    xi = gen.normal(0.0, sigma, (2000, 4))
    z = reshape_noise(code.encoder, xi)
    out = gkp_tms_decoder(gain, sigma)(z, None)
    c = _tms_weight(gain, sigma, 0.0)
    assert np.allclose(out.xi_q, z[:, 0] + c * z[:, 2], atol=1e-12)
    assert np.allclose(out.xi_p, z[:, 1] - c * z[:, 3], atol=1e-12)
    # the estimator beats the bare channel here
    assert np.var(out.xi_q) < sigma**2


@pytest.mark.parametrize("n_modes,lam", [(2, 3.0), (3, 2.0), (4, 1.8)])
def test_squeezed_repetition_single_component_responses(n_modes, lam):
    """Trace single noise components through the measurement chains.

    The position estimate is the least-squares projection of the data
    row of S^{-1} onto the ancilla rows, which leaves no more than the
    zero-forcing chain's residual sigma / lam^(N-1)."""
    atten = lam ** (n_modes - 1)
    code = gkp_squeezed_repetition(n_modes, lam)
    enc = code.encoder

    def respond(index, amount):
        xi = np.zeros(2 * n_modes)
        xi[index] = amount
        return gkp_squeezed_repetition_decoder(n_modes, lam)(
            reshape_noise(enc, xi), None
        )

    residual_q = _lstsq_residual(code, 0)
    for index in range(2 * n_modes):
        out = respond(index, 0.01)
        assert out.xi_q == pytest.approx(0.01 * residual_q[index], abs=1e-12)
    assert residual_q @ residual_q <= atten**-2
    # data position noise leaves momentum alone
    out = respond(0, 0.01)
    assert out.xi_p == pytest.approx(0.0, abs=1e-12)
    # data momentum noise survives, attenuated
    out = respond(1, 0.01)
    assert out.xi_p == pytest.approx(0.01 / atten, abs=1e-12)
    # ancilla momentum noise is fully corrected
    out = respond(3, 0.01)
    assert out.xi_p == pytest.approx(0.0, abs=1e-12)


def test_squeezed_repetition_batch_small_noise_scaling():
    n_modes, lam, sigma = 3, 4.0, 0.02
    enc = gkp_squeezed_repetition(n_modes, lam).encoder
    gen = stream_rng(21, 5)
    xi = gen.normal(0.0, sigma, (20_000, 2 * n_modes))
    out = gkp_squeezed_repetition_decoder(n_modes, lam)(reshape_noise(enc, xi), None)
    atten = lam ** (n_modes - 1)
    assert np.std(out.xi_q) == pytest.approx(sigma / atten, rel=0.05)
    assert np.std(out.xi_p) == pytest.approx(sigma / atten, rel=0.05)


def test_squeezed_repetition_read_order_pins_noisy_draws():
    """Noisy ancilla reads draw in the documented order: positions of
    modes 2..N, then momenta from mode N back to mode 2.  The reference
    below walks the decoder's reads with explicit modular_measure calls
    on a second generator with the same seed."""
    n_modes, lam, sigma_gkp = 3, 2.5, 0.05
    z = stream_rng(21, 6).normal(0.0, 0.2, (400, 2 * n_modes))
    dec = Decoder.for_code(gkp_squeezed_repetition(n_modes, lam, sigma_gkp), 0.2)
    assert dec.columns == (2, 4, 5, 3)
    out = dec(z, np.random.default_rng(9))

    gen = np.random.default_rng(9)
    values = []
    for k, column in enumerate(dec.columns):
        v = z[:, column] - sum(w * m for w, m in zip(dec.weights[k], values))
        values.append(modular_measure(v, sigma_gkp, gen))
    ref_q = z[:, 0] - sum(c * v for c, v in zip(dec.weights[-2], values))
    ref_p = z[:, 1] - sum(c * v for c, v in zip(dec.weights[-1], values))
    assert np.allclose(out.xi_q, ref_q, rtol=0, atol=1e-9)
    assert np.allclose(out.xi_p, ref_p, rtol=0, atol=1e-9)


def test_decoder_rejects_bad_ancilla_noise_at_build():
    for sigma_gkp in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            Decoder(2, (2, 3), _GKP_REP_WEIGHTS, sigma_gkp)
        with pytest.raises(ValueError):
            Decoder.for_code(gkp_repetition(sigma_gkp), 0.1)


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, (2, 3), _GKP_REP_WEIGHTS), "n_modes must be >= 1, got 0"),
        ((True, (2, 3), _GKP_REP_WEIGHTS), "n_modes must be an integer, got True"),
        ((2, (True, 3), _GKP_REP_WEIGHTS), "columns must be an integer, got True"),
        ((2, (-1, 3), _GKP_REP_WEIGHTS), "columns must be >= 0, got -1"),
        ((2, (7, 3), _GKP_REP_WEIGHTS), "columns must be below 4, got 7"),
        ((2, (2, 3), ((0, 0), (0, 0), (math.nan, 0), (0, 1))), "weights must be finite, got nan"),
        ((2, (2, 3), ((0, 0), (0, 0), (True, 0), (0, 1))),
         "weights must be a real number, got ((0, 0), (0, 0), (True, 0), (0, 1))"),
        ((2, (2, 3), _GKP_REP_WEIGHTS[1:]), "weights must have shape (4, 2), got (3, 2)"),
        ((2, (2, 3), ((0, 1), (0, 0), (-0.5, 0), (0, 1))),
         "weights may feed a read forward only from an earlier read"),
        ((2, (2, 3), _GKP_REP_WEIGHTS, 0.0, "no"), "exact must be a bool, got 'no'"),
    ],
)
def test_decoder_rejects_malformed_fields(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Decoder(*args)


def test_decoder_weights_are_a_read_only_copy():
    weights = np.array(_GKP_REP_WEIGHTS)
    dec = Decoder(2, (2, 3), weights)
    weights[2, 0] = 1.0
    assert dec.weights[2, 0] == -0.5
    with pytest.raises(ValueError, match="read-only"):
        dec.weights[2, 0] = 1.0


def test_for_code_rejects_bad_sigma():
    for sigma in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="sigma must be finite"):
            Decoder.for_code(gkp_tms(2.0), sigma)


@pytest.mark.parametrize(
    "code", [gkp_tms(2.0, 0.05), gkp_squeezed_repetition(3, 2.0, 0.05)]
)
def test_zero_sigma_with_noisy_ancillas_measures_nothing(code):
    """The reads are pure ancilla noise: no weight, no feed-forward."""
    with np.errstate(all="raise"):
        dec = Decoder.for_code(code, 0.0)
    assert not dec.weights.any()


def test_noisy_gkp_repetition_weights_are_mmse():
    """With ancilla noise 2 sigma_gkp^2 per read the weights shrink to
    the scalar MMSE values."""
    sigma, sigma_gkp = 0.1, 0.05
    dec = Decoder.for_code(gkp_repetition(sigma_gkp), sigma)
    s2, t2 = sigma**2, 2.0 * sigma_gkp**2
    assert dec.weights[-2, 0] == pytest.approx(-s2 / (2.0 * s2 + t2), rel=1e-12, abs=0)
    assert dec.weights[-1, 1] == pytest.approx(s2 / (s2 + t2), rel=1e-12, abs=0)


@pytest.mark.parametrize("shape", [(300,), ()])
def test_feed_forward_in_place_matches_out_of_place(shape):
    """The decoder's in-place feed-forward gives the bits of the
    out-of-place loop `v = v - weight * m_j`."""
    n_modes = 4
    code = gkp_squeezed_repetition(n_modes, 1.8)
    dec = Decoder.for_code(code, 0.1)
    assert dec.weights[:-2].any()
    z = reshape_noise(code.encoder, stream_rng(21, 7).normal(0.0, 0.1, shape + (2 * n_modes,)))
    out = dec(z)

    values = []
    for k, column in enumerate(dec.columns):
        v = z[..., column]
        for weight, m in zip(dec.weights[k], values):
            if weight:
                v = v - weight * m
        values.append(centered_mod(v))
    terms = [c * v for c, v in zip(dec.weights[-2], values) if c]
    assert np.array_equal(out.xi_q, z[..., 0] - sum(terms[1:], terms[0]))
    terms = [c * v for c, v in zip(dec.weights[-1], values) if c]
    assert np.array_equal(out.xi_p, z[..., 1] - sum(terms[1:], terms[0]))


def test_three_mode_code_defined_here_decodes():
    """A code with no decoder of its own: one data mode, two GKP
    ancillas.  Without wraps the sampled variance is the least-squares
    residual of the data rows."""
    sigma, gain = 0.05, 2.0
    code = CodeSpec(compose(two_mode_squeeze(gain, 1, 2, 3), sum_gate(1, 3, 3)), 1)
    dec = Decoder.for_code(code, sigma)
    assert dec.weights[:-2].any()
    rep = run(code, dec, sigma, 200_000, seed=SEED)
    for row, std, se in ((0, rep.std_q, rep.se_var_q), (1, rep.std_p, rep.se_var_p)):
        r = _lstsq_residual(code, row)
        assert abs(std**2 - sigma**2 * (r @ r)) <= 3 * se


def test_gkp_tms_pair_decodes_data_mode_one():
    sigma, gain = 0.1, 4.806
    code = gkp_tms_pair(gain)
    rep = run(code, Decoder.for_code(code, sigma), sigma, 400_000, seed=SEED)
    var = tms_variance(sigma, gain)
    assert abs(rep.std_q**2 - var) <= 3 * rep.se_var_q
    assert abs(rep.std_p**2 - var) <= 3 * rep.se_var_p


@st.composite
def _random_codes(draw):
    """One data mode and one to three ancillas, GKP (ideal or noisy) or
    position eigenstates, behind a product of one to four random gates."""
    n = draw(st.integers(2, 4))
    gates = []
    for _ in range(draw(st.integers(1, 6))):
        a, b = draw(st.permutations(range(1, n + 1)))[:2]
        # away from the identity and the swap, so that reads overlap and feed forward
        x = draw(st.floats(0.1, 0.9))
        gates.append(draw(st.sampled_from((
            lambda: sum_gate(a, b, n),
            lambda: single_mode_squeeze(math.exp(2.0 * x - 1.0), a, n),
            lambda: two_mode_squeeze(1.0 + 4.0 * x, a, b, n),
            lambda: beam_splitter(x, a, b, n),
        )))())
    kind, sigma_gkp = draw(st.sampled_from((("gkp", 0.0), ("gkp", 0.05), ("position", 0.0))))
    return CodeSpec(compose(*gates), 1, kind, sigma_gkp)


@settings(max_examples=60)
@given(code=_random_codes(), sigma=st.floats(0.05, 0.5), seed=st.integers(0, 2**32))
def test_random_codes_decode_as_an_explicit_walk(code, sigma, seed):
    """`__call__`'s in-place walk of `columns` and `weights` gives the bits
    of an out-of-place walk with its own modular_measure calls, whose
    generator takes the same seed."""
    dec = Decoder.for_code(code, sigma)
    z = reshape_noise(code.encoder, stream_rng(21, 8).normal(0.0, sigma, (64, 2 * code.n_modes)))
    for x in (z, z[0]):
        out = dec(x, np.random.default_rng(seed))
        gen = np.random.default_rng(seed)
        values = []
        for k, column in enumerate(dec.columns):
            v = x[..., column]
            for weight, m in zip(dec.weights[k], values):
                if weight:
                    v = v - weight * m
            values.append(v if dec.exact else modular_measure(v, dec.sigma_gkp, gen))
        for got, data, c in ((out.xi_q, x[..., 0], dec.weights[-2]),
                             (out.xi_p, x[..., 1], dec.weights[-1])):
            terms = [w * m for w, m in zip(c, values) if w]
            assert np.array_equal(got, data - sum(terms[1:], terms[0]) if terms else data)
