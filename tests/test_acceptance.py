"""Release acceptance runs, one test per shipped guarantee.

Every test exercises its criterion end to end at the stated tolerance
and registers a one-line verdict; the terminal summary prints all of
them together.  Tolerances and sample sizes are part of the contract
and must not be loosened here.
"""

import math
import time

import numpy as np
import pytest

from gkpstab.analytic import (
    gkp_repetition_stds,
    tms_asymptotic_optimum,
    tms_variance,
)
from gkpstab.checks import run_all_checks
from gkpstab.codes import (
    gaussian_repetition,
    gkp_repetition,
    gkp_squeezed_repetition,
    gkp_tms,
)
from gkpstab.decoders import Decoder
from gkpstab.modular import MODULAR_PERIOD
from gkpstab.montecarlo import run
from gkpstab.noise import gkp_sigma_from_db
from gkpstab.tuning import critical_gkp_squeezing_db, optimize, threshold_sigma

SEED = 20260823


def _small_noise_plus_wrap_stds(sigma):
    """Paper spreads sigma/sqrt(2) and sigma plus the single-wrap term.

    The position syndrome has variance 2 sigma^2 and leaves the central
    cell with probability erfc(sqrt(2 pi) / (4 sigma)); each such wrap
    shifts the output by half a period, adding (pi/2) per event.  The
    momentum syndrome has variance sigma^2 and a wrap shifts by a full
    period, adding 2 pi per event.
    """
    wrap_q = math.erfc(MODULAR_PERIOD / (4.0 * sigma))
    wrap_p = math.erfc(MODULAR_PERIOD / (2.0 * math.sqrt(2.0) * sigma))
    ref_q = math.sqrt(sigma**2 / 2.0 + (math.pi / 2.0) * wrap_q)
    ref_p = math.sqrt(sigma**2 + 2.0 * math.pi * wrap_p)
    return ref_q, ref_p


def test_c1_gkp_repetition_spreads(record_criterion):
    start = time.perf_counter()
    failures = []
    code = gkp_repetition()
    for sigma in (0.05, 0.1, 0.2, 0.3):
        std_q, std_p = gkp_repetition_stds(sigma)
        ref_q, ref_p = _small_noise_plus_wrap_stds(sigma)
        rep = run(code, Decoder.for_code(code, sigma), sigma, 10**6, seed=SEED, histogram=False)
        for quad, analytic, ref, mc, se in (
            ("q", std_q, ref_q, rep.std_q, rep.se_std_q),
            ("p", std_p, ref_p, rep.std_p, rep.se_std_p),
        ):
            dev = abs(analytic / ref - 1.0)
            if dev > 0.02:
                failures.append(
                    f"sigma={sigma}: analytic sigma_{quad} {analytic:.4f} vs "
                    f"small-noise+wrap {ref:.4f}, off by {dev:.1%}"
                )
            if abs(mc - analytic) > 3 * se:
                failures.append(
                    f"sigma={sigma}: MC sigma_{quad} {mc:.4f} vs analytic "
                    f"{analytic:.4f}, off by {abs(mc - analytic) / se:.1f} SE"
                )
    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.0f}s exceeds 1 min")
    record_criterion(
        "criterion 1 (repetition-code spreads)",
        not failures,
        "; ".join(failures) if failures else
        f"analytic within 2% of small-noise+wrap, MC within 3 SE of analytic, {elapsed:.1f}s",
    )
    assert not failures, "; ".join(failures)


def test_c2_tms_optimum(record_criterion):
    start = time.perf_counter()
    opt = optimize(0.1)
    checks = {
        "g_star": abs(opt.g_star / 4.806 - 1.0) <= 0.005,
        "squeeze_db": abs(opt.squeeze_db - 12.35) <= 0.05,
        "sigma_L_star": abs(opt.sigma_L_star - 0.036) <= 0.001,
        "qec_gain": abs(opt.qec_gain / 7.7 - 1.0) <= 0.05,
    }
    elapsed = time.perf_counter() - start
    bad = [k for k, ok in checks.items() if not ok]
    if elapsed >= 60:
        bad.append("runtime")
    record_criterion(
        "criterion 2 (optimal working point at sigma=0.1)",
        not bad,
        "; ".join(bad) if bad else
        f"G*={opt.g_star:.4f}, {opt.squeeze_db:.3f} dB, gain {opt.qec_gain:.3f}",
    )
    assert not bad, f"out of tolerance: {bad}"


def test_c3_threshold(record_criterion):
    value = threshold_sigma()
    ok = value is not None and abs(value - 0.558) <= 0.005
    record_criterion(
        "criterion 3 (break-even channel noise)",
        ok,
        f"sigma_threshold={value:.4f}" if value is not None else "no threshold found",
    )
    assert ok


def test_c4_asymptotics(record_criterion):
    failures = []
    for sigma in (0.02, 0.05, 0.1):
        exact = optimize(sigma)
        g_asym, sigma_l_asym = tms_asymptotic_optimum(sigma)
        if abs(sigma_l_asym / exact.sigma_L_star - 1.0) > 0.10:
            failures.append(f"sigma={sigma}: sigma_L off")
        if abs(g_asym / exact.g_star - 1.0) > 0.15:
            failures.append(f"sigma={sigma}: g_star off")
    record_criterion(
        "criterion 4 (closed-form asymptotics)",
        not failures,
        "; ".join(failures) if failures else "within 10%/15% at all points",
    )
    assert not failures, "; ".join(failures)


def test_c5_noisy_ancillas(record_criterion):
    start = time.perf_counter()
    failures = []
    critical = critical_gkp_squeezing_db()
    if abs(critical - 11.0) > 0.1:
        failures.append(f"critical squeezing {critical:.2f} dB not within 0.1 of 11.0")
    opt = optimize(0.1, gkp_sigma_from_db(30.0), objective="noisy_gkp")
    if abs(opt.qec_gain / 4.41 - 1.0) > 0.02:
        failures.append(f"gain at 30 dB = {opt.qec_gain:.3f} not within 2% of 4.41")
    elapsed = time.perf_counter() - start
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.0f}s exceeds 5 min")
    record_criterion(
        "criterion 5 (finite ancilla squeezing)",
        not failures,
        "; ".join(failures) if failures else
        f"critical {critical:.2f} dB, gain {opt.qec_gain:.3f}, {elapsed:.1f}s",
    )
    assert not failures, "; ".join(failures)


def test_c6_gaussian_repetition(record_criterion):
    sigma = 0.2
    failures = []
    for n_modes in (2, 3):
        code = gaussian_repetition(n_modes)
        rep = run(
            code,
            Decoder.for_code(code, sigma),
            sigma,
            10**6,
            seed=SEED,
            histogram=False,
        )
        var_q, var_p = rep.std_q**2, rep.std_p**2
        if abs(var_q / (sigma**2 / n_modes) - 1.0) > 0.02:
            failures.append(f"n={n_modes}: position variance off")
        if abs(var_p / (sigma**2 * n_modes) - 1.0) > 0.02:
            failures.append(f"n={n_modes}: momentum variance off")
        if abs(rep.std_q * rep.std_p / sigma**2 - 1.0) > 0.02:
            failures.append(f"n={n_modes}: uncertainty product off")
    record_criterion(
        "criterion 6 (all-Gaussian repetition only squeezes)",
        not failures,
        "; ".join(failures) if failures else "variances and product within 2%",
    )
    assert not failures, "; ".join(failures)


def test_c7_squeezed_repetition_scaling(record_criterion):
    start = time.perf_counter()
    wrap_constant = 0.08
    sigmas = np.geomspace(0.01, 0.05, 5)
    failures = []
    slopes = {}
    for n_modes in (2, 3):
        spreads = []
        for sigma in sigmas:
            lam = wrap_constant * MODULAR_PERIOD / float(sigma)
            code = gkp_squeezed_repetition(n_modes, lam)
            rep = run(
                code,
                Decoder.for_code(code, float(sigma)),
                float(sigma),
                10**6,
                seed=SEED,
                histogram=False,
            )
            spreads.append(math.sqrt(0.5 * (rep.std_q**2 + rep.std_p**2)))
        slope = float(np.polyfit(np.log(sigmas), np.log(spreads), 1)[0])
        slopes[n_modes] = slope
        if abs(slope - n_modes) > 0.2:
            failures.append(f"n={n_modes}: slope {slope:.3f}")
    elapsed = time.perf_counter() - start
    if elapsed >= 600:
        failures.append(f"runtime {elapsed:.0f}s exceeds 10 min")
    record_criterion(
        "criterion 7 (higher-order noise scaling)",
        not failures,
        "; ".join(failures) if failures else
        f"slopes {slopes[2]:.3f}, {slopes[3]:.3f} in {elapsed:.1f}s",
    )
    assert not failures, "; ".join(failures)


def test_c8_structural_identities(record_criterion):
    results = run_all_checks(seed=SEED)
    bad = [r.name for r in results if not r.passed]
    record_criterion(
        "criterion 8 (structural identities)",
        not bad,
        "; ".join(bad) if bad else f"{len(results)} checks clean",
    )
    assert not bad, f"failed checks: {bad}"


def test_c9_oracle_equivalence(record_criterion):
    sigma_grid = (0.05, 0.1, 0.2)
    failures = []
    for sigma in sigma_grid:
        g_star = optimize(sigma).g_star
        for gain in (1.5, g_star, 10.0):
            code = gkp_tms(gain)
            rep = run(
                code,
                Decoder.for_code(code, sigma),
                sigma,
                10**7,
                seed=SEED,
                histogram=False,
            )
            predicted = tms_variance(sigma, gain)
            if abs(rep.std_q**2 - predicted) > 3 * rep.se_var_q:
                failures.append(f"sigma={sigma}, G={gain:.3g}: beyond 3 SE")
    record_criterion(
        "criterion 9 (closed form vs sampling)",
        not failures,
        "; ".join(failures) if failures else "9 grid points within 3 SE",
    )
    assert not failures, "; ".join(failures)
