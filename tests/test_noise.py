import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gkpstab.codes import gkp_repetition
from gkpstab.noise import (
    IidNoiseModel,
    draw_normal,
    gkp_sigma_from_db,
    reshape_noise,
    sample_iid,
    stream_rng,
)


def test_stream_rng_deterministic_and_disjoint():
    a = stream_rng(7, 0).normal(size=8)
    b = stream_rng(7, 0).normal(size=8)
    c = stream_rng(7, 1).normal(size=8)
    d = stream_rng(8, 0).normal(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: stream_rng(True), "seed must be an integer, got True"),
        (lambda: stream_rng(1.5), "seed must be an integer, got 1.5"),
        (lambda: stream_rng(-1), "seed must be >= 0, got -1"),
        (lambda: stream_rng(1, True), "stream must be an integer, got True"),
        (lambda: stream_rng(1, -1), "stream must be >= 0, got -1"),
        (lambda: stream_rng(1, 1.5), "stream must be an integer, got 1.5"),
        (lambda: sample_iid(IidNoiseModel(0.3, 2), 1, 10, True), "stream must be an integer, got True"),
        (lambda: IidNoiseModel(0.3, 0), "n_modes must be >= 1, got 0"),
        (lambda: IidNoiseModel(0.3, 2.0), "n_modes must be an integer, got 2.0"),
        (lambda: sample_iid(IidNoiseModel(0.3, 2), 1, -1), "count must be >= 0, got -1"),
        (lambda: sample_iid(IidNoiseModel(0.3, 2), 1, 10.0), "count must be an integer, got 10.0"),
        (lambda: sample_iid(IidNoiseModel(0.3, 2), -3, 10), "seed must be >= 0, got -3"),
    ],
)
def test_seeds_and_counts_must_be_integers(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_numpy_integer_seed_gives_the_same_stream():
    a = stream_rng(7, 3).normal(size=8)
    assert np.array_equal(stream_rng(np.uint64(7), 3).normal(size=8), a)
    assert np.array_equal(stream_rng(np.int32(7), 3).normal(size=8), a)
    assert np.array_equal(stream_rng(7, np.int64(3)).normal(size=8), a)


def test_sample_iid_shape_and_scale():
    model = IidNoiseModel(sigma=0.3, n_modes=2)
    x = sample_iid(model, seed=11, count=50_000)
    assert x.shape == (50_000, 4)
    assert np.std(x) == pytest.approx(0.3, rel=0.02)


def test_reshape_matches_inverse_encoder():
    # against a numerical inverse, not the symplectic one reshape_noise uses
    code = gkp_repetition()
    xi = stream_rng(11, 1).normal(0.0, 0.2, (64, 4))
    z = reshape_noise(code.encoder, xi)
    assert np.allclose(z, xi @ np.linalg.inv(code.encoder.matrix).T, atol=1e-14)


def test_reshaped_covariance_matches_propagation():
    """Sample covariance of reshaped noise tracks sigma^2 S^-1 S^-T."""
    code = gkp_repetition()
    model = IidNoiseModel(sigma=0.4, n_modes=2)
    xi = sample_iid(model, seed=12, count=200_000)
    z = reshape_noise(code.encoder, xi)
    s_inv = np.linalg.inv(code.encoder.matrix)
    assert np.allclose(np.cov(z.T), 0.4**2 * s_inv @ s_inv.T, atol=0.01)


def test_gkp_db_conversions_roundtrip():
    # the squeezing of a GKP state is s = -10 log10(2 sigma_gkp^2)
    for db in (11.0, 15.0, 30.0):
        sigma = gkp_sigma_from_db(db)
        assert -10.0 * math.log10(2.0 * sigma**2) == pytest.approx(db, rel=1e-12)
    assert gkp_sigma_from_db(30.0) == pytest.approx(math.sqrt(0.5e-3), rel=1e-12)
    assert gkp_sigma_from_db(math.inf) == 0.0


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_gkp_sigma_from_db_rejects_non_finite(bad):
    with pytest.raises(ValueError, match=f"^squeeze_db must be finite, got {bad}$"):
        gkp_sigma_from_db(bad)


def test_gkp_sigma_from_db_names_a_squeezing_whose_variance_overflows():
    # 10 ** 700 is beyond float range; it raised a bare OverflowError
    with pytest.raises(ValueError, match=r"^squeeze_db must keep the noise variance finite, "
                                         r"got -7000\.0$"):
        gkp_sigma_from_db(-7000.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_noise_strengths_reject_non_finite(bad):
    with pytest.raises(ValueError, match=f"got {bad}"):
        IidNoiseModel(sigma=bad, n_modes=2)


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
