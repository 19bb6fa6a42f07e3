import math

import pytest

from gkpstab.noise import gkp_sigma_from_db
from gkpstab.tuning import (
    critical_gkp_squeezing_db,
    optimize,
    squeeze_db_from_gain,
    threshold_sigma,
)


def test_optimum_reference_point():
    opt = optimize(0.1)
    assert opt.g_star == pytest.approx(4.8067, rel=1e-3)
    assert opt.squeeze_db == pytest.approx(12.3473, abs=5e-3)
    assert opt.sigma_L_star == pytest.approx(0.0358037, rel=1e-4)
    assert opt.qec_gain == pytest.approx(7.8009, rel=1e-3)
    assert opt.lambda_star == pytest.approx(
        math.sqrt(opt.g_star) + math.sqrt(opt.g_star - 1.0), rel=1e-12
    )


def test_optimum_is_a_minimum():
    from gkpstab.analytic import tms_variance

    opt = optimize(0.2)
    best = tms_variance(0.2, opt.g_star)
    assert best < tms_variance(0.2, opt.g_star * 1.05)
    assert best < tms_variance(0.2, opt.g_star / 1.05)


def test_clamped_above_threshold():
    opt = optimize(0.7)
    assert opt.g_star == 1.0
    assert opt.squeeze_db == 0.0
    assert opt.sigma_L_star == 0.7
    assert opt.qec_gain == 1.0


def test_threshold_location():
    assert threshold_sigma() == pytest.approx(0.5583, abs=2e-3)


def test_threshold_gone_for_bad_ancillas():
    assert threshold_sigma(gkp_sigma_from_db(8.0)) is None


def test_noisy_ancilla_optimum():
    opt = optimize(0.1, gkp_sigma_from_db(30.0), objective="noisy_gkp")
    assert opt.qec_gain == pytest.approx(4.4102, rel=5e-3)
    assert opt.g_star == pytest.approx(4.7616, rel=1e-2)
    # worse ancillas can only lower the gain
    ideal = optimize(0.1)
    assert opt.qec_gain < ideal.qec_gain


def test_erfc_objective_agrees_at_small_noise():
    exact = optimize(0.05)
    approx = optimize(0.05, objective="erfc_approx")
    assert approx.g_star == pytest.approx(exact.g_star, rel=1e-3)
    assert approx.sigma_L_star == pytest.approx(exact.sigma_L_star, rel=1e-4)


def test_squeeze_db_from_gain():
    assert squeeze_db_from_gain(1.0) == 0.0
    assert squeeze_db_from_gain(4.8067) == pytest.approx(12.347, abs=2e-3)
    with pytest.raises(ValueError):
        squeeze_db_from_gain(0.9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_squeeze_db_from_gain_rejects_non_finite(bad):
    with pytest.raises(ValueError, match=f"gain must be finite.*got {bad}"):
        squeeze_db_from_gain(bad)


def test_validation():
    with pytest.raises(ValueError):
        optimize(0.0)
    with pytest.raises(ValueError):
        optimize(0.1, -0.1)
    with pytest.raises(ValueError):
        optimize(0.1, objective="fanciful")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_named(bad):
    # each search fails before it starts, naming the argument and its value
    for call, name in (
        (lambda: optimize(bad), "sigma"),
        (lambda: optimize(0.1, bad, objective="noisy_gkp"), "sigma_gkp"),
        (lambda: threshold_sigma(bad), "sigma_gkp"),
        (lambda: threshold_sigma(tol=bad), "tol"),
        (lambda: critical_gkp_squeezing_db(bad), "tol_db"),
    ):
        with pytest.raises(ValueError, match=f"{name} must be finite.*got {bad}"):
            call()


def test_critical_squeezing_brackets():
    from gkpstab.tuning import _any_window

    assert not _any_window(gkp_sigma_from_db(10.5))
    assert _any_window(gkp_sigma_from_db(12.0))


@pytest.mark.slow
def test_critical_squeezing_value():
    assert critical_gkp_squeezing_db() == pytest.approx(11.0, abs=0.1)
