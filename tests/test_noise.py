import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gkpstab.codes import gkp_repetition
from gkpstab.noise import (
    IidNoiseModel,
    NoiseCovariance,
    draw_normal,
    gkp_db_from_sigma,
    gkp_sigma_from_db,
    gkp_sigma_from_delta,
    iid_covariance,
    loss_to_sigma,
    propagate_covariance,
    reshape_noise,
    sample_iid,
    stream_rng,
)
from gkpstab.symplectic import apply, inverse


def test_stream_rng_deterministic_and_disjoint():
    a = stream_rng(7, 0).normal(size=8)
    b = stream_rng(7, 0).normal(size=8)
    c = stream_rng(7, 1).normal(size=8)
    d = stream_rng(8, 0).normal(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sample_iid_shape_and_scale():
    model = IidNoiseModel(sigma=0.3, n_modes=2)
    x = sample_iid(model, seed=11, count=50_000)
    assert x.shape == (50_000, 4)
    assert np.std(x) == pytest.approx(0.3, rel=0.02)


def test_iid_covariance():
    model = IidNoiseModel(sigma=0.5, n_modes=3)
    cov = iid_covariance(model)
    assert np.allclose(cov.matrix, 0.25 * np.eye(6))


def test_reshape_matches_inverse_encoder():
    code = gkp_repetition()
    xi = stream_rng(11, 1).normal(0.0, 0.2, (64, 4))
    z = reshape_noise(code.encoder, xi)
    direct = apply(inverse(code.encoder), xi)
    assert np.allclose(z, direct, atol=1e-14)


def test_reshaped_covariance_matches_propagation():
    """Sample covariance of reshaped noise tracks S^-1 V S^-T."""
    code = gkp_repetition()
    model = IidNoiseModel(sigma=0.4, n_modes=2)
    xi = sample_iid(model, seed=12, count=200_000)
    z = reshape_noise(code.encoder, xi)
    sample_cov = np.cov(z.T)
    predicted = propagate_covariance(code.encoder, iid_covariance(model))
    assert np.allclose(sample_cov, predicted.matrix, atol=0.01)


def test_covariance_validation():
    with pytest.raises(ValueError):
        NoiseCovariance(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        NoiseCovariance(np.array([[1.0, 2.0], [2.0, 1.0]]))  # negative eigenvalue
    ok = NoiseCovariance(np.diag([1.0, 2.0]))
    assert ok.n_modes == 1


def test_loss_to_sigma():
    assert loss_to_sigma(0.09) == pytest.approx(0.3, rel=1e-12)
    assert loss_to_sigma(0.0) == 0.0
    with pytest.raises(ValueError):
        loss_to_sigma(1.0)
    with pytest.raises(ValueError):
        loss_to_sigma(-0.1)


def test_gkp_db_conversions_roundtrip():
    for db in (11.0, 15.0, 30.0):
        sigma = gkp_sigma_from_db(db)
        assert gkp_db_from_sigma(sigma) == pytest.approx(db, rel=1e-12)
    assert gkp_sigma_from_db(30.0) == pytest.approx(math.sqrt(0.5e-3), rel=1e-12)
    assert gkp_sigma_from_db(math.inf) == 0.0
    assert gkp_db_from_sigma(0.0) == math.inf


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_gkp_sigma_from_db_rejects_non_finite(bad):
    with pytest.raises(ValueError, match=f"squeezing must be finite.*got {bad}"):
        gkp_sigma_from_db(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_noise_strengths_reject_non_finite(bad):
    with pytest.raises(ValueError, match=f"got {bad}"):
        IidNoiseModel(sigma=bad, n_modes=2)
    with pytest.raises(ValueError, match=f"got {bad}"):
        gkp_sigma_from_delta(bad)
    with pytest.raises(ValueError, match=f"got {bad}"):
        gkp_db_from_sigma(bad)


def test_gkp_sigma_from_delta_small_limit():
    # for small delta the variance approaches delta / 2
    delta = 1e-4
    assert gkp_sigma_from_delta(delta) ** 2 == pytest.approx(delta / 2, rel=1e-3)
    assert gkp_sigma_from_delta(0.0) == 0.0
    big = gkp_sigma_from_delta(1.0)
    small = gkp_sigma_from_delta(0.1)
    assert big > small > 0


@given(
    st.floats(0.0, 10.0),
    st.integers(0, 2**32),
    st.integers(0, 2**32 - 1),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=40),
)
def test_draw_normal_equals_generator_normal_bitwise(sigma, seed, stream, shape):
    # sigma = 0 and subnormal sigma included: the draw must give +0.0 where
    # Generator.normal does
    want = stream_rng(seed, stream).normal(0.0, sigma, shape)
    got = draw_normal(stream_rng(seed, stream), sigma, shape)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
