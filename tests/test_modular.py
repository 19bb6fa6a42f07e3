import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gkpstab.modular import MODULAR_PERIOD, centered_mod, modular_measure
from gkpstab.noise import stream_rng


def test_period_constant():
    assert MODULAR_PERIOD == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-15)


def test_reference_value():
    # 1.5 sits past the first wrap boundary of the sqrt(2 pi) lattice
    assert centered_mod(1.5) == pytest.approx(-1.0066282746310002, abs=1e-15)


def test_zero_and_period_multiples():
    assert centered_mod(0.0) == 0.0
    for k in (-3, -1, 1, 4):
        assert centered_mod(k * MODULAR_PERIOD) == pytest.approx(0.0, abs=1e-12)


def test_result_stays_in_half_open_window():
    gen = stream_rng(5, 0)
    z = gen.uniform(-40, 40, 5000)
    r = centered_mod(z)
    assert np.all(np.abs(r) <= MODULAR_PERIOD / 2 + 1e-12)


def test_shift_invariance():
    gen = stream_rng(5, 1)
    z = gen.uniform(-3, 3, 200)
    for k in (-2, 1, 5):
        assert np.allclose(centered_mod(z + k * MODULAR_PERIOD), centered_mod(z), atol=1e-10)


def test_tie_keeps_sign():
    """Exactly on a boundary the result carries the input's sign."""
    assert centered_mod(1.0, 2.0) == 1.0
    assert centered_mod(-1.0, 2.0) == -1.0
    assert centered_mod(3.0, 2.0) == 1.0
    assert centered_mod(-3.0, 2.0) == -1.0


def test_plain_wraps_small_period():
    assert centered_mod(1.4, 2.0) == pytest.approx(-0.6)
    assert centered_mod(-1.4, 2.0) == pytest.approx(0.6)
    assert centered_mod(0.3, 2.0) == pytest.approx(0.3)


def test_scalar_in_float_out():
    out = centered_mod(0.7)
    assert isinstance(out, float)
    arr = centered_mod(np.array([0.7, 1.5]))
    assert isinstance(arr, np.ndarray) and arr.shape == (2,)


def test_invalid_period():
    with pytest.raises(ValueError):
        centered_mod(1.0, 0.0)
    with pytest.raises(ValueError):
        centered_mod(1.0, -1.0)


@pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf])
def test_non_finite_period_rejected(period):
    with pytest.raises(ValueError, match=f"got {period}"):
        centered_mod(1.0, period)


def test_modular_measure_ideal_matches_centered_mod():
    gen = stream_rng(5, 2)
    z = gen.uniform(-5, 5, 100)
    assert np.array_equal(modular_measure(z), centered_mod(z))


def test_modular_measure_noise_variance():
    """Finite ancilla quality adds variance 2 sigma_gkp^2 before wrapping."""
    sigma_gkp = 0.01
    vals = np.zeros(200_000)
    out = modular_measure(vals, sigma_gkp, rng=stream_rng(5, 3))
    assert np.var(out) == pytest.approx(2.0 * sigma_gkp**2, rel=0.05)


def test_modular_measure_seeded_reproducible():
    z = np.linspace(-1, 1, 50)
    a = modular_measure(z, 0.1, rng=123)
    b = modular_measure(z, 0.1, rng=123)
    c = modular_measure(z, 0.1, rng=124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_modular_measure_rejects_non_finite_noise():
    for sigma_gkp in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma_gkp"):
            modular_measure(np.zeros(3), sigma_gkp, 1)


def _reference_centered_mod(value, period):
    # the round-half-toward-zero formula centered_mod must equal bit for bit
    x = np.asarray(value, dtype=float) / period
    n = np.where(x >= 0, np.ceil(x - 0.5), np.floor(x + 0.5))
    return np.asarray(value, dtype=float) - n * period


_periods = st.one_of(
    st.just(MODULAR_PERIOD), st.floats(1e-3, 1e3, allow_subnormal=False)
)
_values = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=2, max_side=8),
    elements=st.floats(-1e12, 1e12),
)


@settings(max_examples=300)
@given(_values, _periods)
def test_bitwise_equal_to_reference_formula(values, period):
    # 0-d input comes back as a float, which asarray turns into shape ()
    got = np.asarray(centered_mod(values, period))
    assert got.shape == values.shape
    assert got.tobytes() == _reference_centered_mod(values, period).tobytes()


@given(st.floats(-1e6, 1e6), _periods)
def test_result_within_half_period(value, period):
    # v - n * period rounds to within a few ulp of max(|v|, period)
    slack = 4 * np.spacing(max(abs(value), period))
    assert abs(centered_mod(value, period)) <= period / 2 + slack


@given(st.integers(-(10**6), 10**6), st.integers(1, 1000))
def test_ties_at_odd_half_multiples_keep_sign(k, period):
    # (2k + 1) * period / 2 and its quotient by period are exact in double
    value = (2 * k + 1) * period / 2
    assert centered_mod(value, float(period)) == math.copysign(period / 2, value)


@given(st.floats(-0.49, 0.49), st.integers(-1000, 1000), _periods)
def test_periodic_in_whole_periods(frac, k, period):
    # values kept off the ties, where one rounding may pick either side
    value = frac * period
    shifted = centered_mod(value + k * period, period)
    assert shifted == pytest.approx(value, abs=1e-12 * (abs(k) + 1) * period)


@given(_values, st.floats(1e-6, 1.0), st.integers(0, 2**32))
def test_noisy_measure_equals_generator_normal_bitwise(values, sigma_gkp, seed):
    # the reference is the plain form: value plus a Generator.normal draw
    noise = np.random.default_rng(seed).normal(0.0, math.sqrt(2.0) * sigma_gkp, values.shape)
    want = centered_mod(values + noise)
    got = modular_measure(values, sigma_gkp, rng=seed)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
