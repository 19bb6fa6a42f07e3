import math

import numpy as np
import pytest

from gkpstab.codes import (
    gaussian_repetition,
    gkp_repetition,
    gkp_squeezed_repetition,
    gkp_tms,
)
from gkpstab.decoders import (
    gaussian_repetition_decoder,
    gkp_repetition_decoder,
    gkp_squeezed_repetition_decoder,
    gkp_tms_decoder,
    mmse_coefficients,
)
from gkpstab.modular import modular_measure
from gkpstab.noise import reshape_noise, stream_rng
from gkpstab.symplectic import inverse


def test_gaussian_repetition_small_noise_algebra():
    """Averaged syndromes leave the mean position noise and pile the
    ancilla momentum noise onto the data mode."""
    n = 3
    code = gaussian_repetition(n)
    gen = stream_rng(21, 0)
    xi = gen.normal(0.0, 0.2, (500, 2 * n))
    out = gaussian_repetition_decoder(n)(reshape_noise(code.encoder, xi), None)
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


def test_gkp_repetition_zero_noise():
    out = gkp_repetition_decoder()(np.zeros(4), None)
    assert out.xi_q == 0.0 and out.xi_p == 0.0


def test_gkp_repetition_noisy_ancilla_reproducible():
    z = stream_rng(21, 2).normal(0.0, 0.3, (50, 4))
    a = gkp_repetition_decoder(0.1)(z, 5)
    b = gkp_repetition_decoder(0.1)(z, 5)
    c = gkp_repetition_decoder(0.1)(z, 6)
    assert np.array_equal(a.xi_q, b.xi_q) and np.array_equal(a.xi_p, b.xi_p)
    assert not np.array_equal(a.xi_q, c.xi_q)


def test_mmse_ideal_limit():
    c_q, c_p = mmse_coefficients(2.0, 0.0)
    assert c_p == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-15)
    assert c_q == -c_p


def test_mmse_magnitude_below_one():
    gen = stream_rng(21, 3)
    for _ in range(300):
        gain = 1.0 + gen.uniform(0.0, 30.0)
        sigma = gen.uniform(0.0, 1.0)
        sigma_gkp = gen.uniform(0.0, 0.3)
        c_q, c_p = mmse_coefficients(gain, sigma, sigma_gkp)
        assert abs(c_p) < 1.0
        assert c_q == -c_p


def test_mmse_trivial_gain_measures_nothing():
    assert mmse_coefficients(1.0, 0.3) == (0.0, 0.0)


def test_mmse_validation():
    with pytest.raises(ValueError):
        mmse_coefficients(0.5, 0.1)
    with pytest.raises(ValueError):
        mmse_coefficients(2.0, -0.1)


def test_gkp_tms_small_noise_linearization():
    """Without wraps the decoder is the linear MMSE estimator."""
    gain, sigma = 3.0, 0.02
    code = gkp_tms(gain)
    gen = stream_rng(21, 4)
    xi = gen.normal(0.0, sigma, (2000, 4))
    z = reshape_noise(code.encoder, xi)
    out = gkp_tms_decoder(gain, sigma)(z, None)
    c_q, c_p = mmse_coefficients(gain, sigma)
    assert np.allclose(out.xi_q, z[:, 0] - c_q * z[:, 2], atol=1e-12)
    assert np.allclose(out.xi_p, z[:, 1] - c_p * z[:, 3], atol=1e-12)
    # the estimator beats the bare channel here
    assert np.var(out.xi_q) < sigma**2


@pytest.mark.parametrize("n_modes,lam", [(2, 3.0), (3, 2.0), (4, 1.8)])
def test_squeezed_repetition_single_component_responses(n_modes, lam):
    """Trace single noise components through the measurement chains."""
    atten = lam ** (n_modes - 1)
    enc = gkp_squeezed_repetition(n_modes, lam).encoder

    def respond(index, amount):
        xi = np.zeros(2 * n_modes)
        xi[index] = amount
        return gkp_squeezed_repetition_decoder(n_modes, lam)(
            reshape_noise(enc, xi), None
        )

    # data position noise is fully corrected
    out = respond(0, 0.01)
    assert out.xi_q == pytest.approx(0.0, abs=1e-12)
    assert out.xi_p == pytest.approx(0.0, abs=1e-12)
    # the last mode's position noise survives, attenuated
    out = respond(2 * (n_modes - 1), 0.01)
    assert out.xi_q == pytest.approx(0.01 / atten, abs=1e-12)
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
    below writes the N = 3 chain out by hand on a second generator with
    the same seed."""
    n_modes, lam, sigma_gkp = 3, 2.5, 0.05
    z = stream_rng(21, 6).normal(0.0, 0.2, (400, 2 * n_modes))
    out = gkp_squeezed_repetition_decoder(n_modes, lam, sigma_gkp)(
        z, np.random.default_rng(9)
    )

    gen = np.random.default_rng(9)
    t = inverse(gkp_squeezed_repetition(n_modes, lam).encoder).matrix
    tq, tp = t[0::2, 0::2], t[1::2, 1::2]
    c1 = tq[0, 0] / tq[1, 0]
    c2 = -c1 * tq[1, 1] / tq[2, 1]
    m_q2 = modular_measure(z[:, 2], sigma_gkp, gen)
    m_q3 = modular_measure(z[:, 4], sigma_gkp, gen)
    m_p3 = modular_measure(z[:, 5], sigma_gkp, gen) / tp[2, 2]
    m_p2 = modular_measure(z[:, 3] - tp[1, 2] * m_p3, sigma_gkp, gen) / tp[1, 1]
    ref_q = z[:, 0] - (c1 * m_q2 + c2 * m_q3)
    ref_p = z[:, 1] - tp[0, 1] * m_p2 - tp[0, 2] * m_p3
    assert np.allclose(out.xi_q, ref_q, rtol=0, atol=1e-9)
    assert np.allclose(out.xi_p, ref_p, rtol=0, atol=1e-9)


def test_decoder_rejects_bad_ancilla_noise_at_build():
    for sigma_gkp in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            gkp_repetition_decoder(sigma_gkp)
