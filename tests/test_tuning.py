import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkpstab import tuning
from gkpstab.noise import gkp_sigma_from_db
from gkpstab.tuning import (
    GainOptimum,
    critical_gkp_squeezing_db,
    optimize,
    squeeze_db_from_gain,
    threshold_sigma,
)

_FIELDS = [field.name for field in dataclasses.fields(GainOptimum)]
_CASES = [("exact", 0.0), ("erfc_approx", 0.0), ("noisy_gkp", 0.0125), ("noisy_gkp", 0.05)]


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
    # the ideal-ancilla objectives would answer for sigma_gkp = 0 instead
    for objective in ("exact", "erfc_approx"):
        with pytest.raises(ValueError, match=f"objective '{objective}'.*sigma_gkp=0.05"):
            optimize(0.1, 0.05, objective)


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


def _lone_golden(fun, lo, hi, rel_tol=1e-6):
    # one golden-section search in log space with Python floats; returns
    # the minimiser and the gains it evaluated, in order
    seen = []

    def f(g):
        seen.append(g)
        return fun(g)

    a, b = math.log(lo), math.log(hi)
    c = b - tuning._INVPHI * (b - a)
    d = a + tuning._INVPHI * (b - a)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    while b - a > rel_tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - tuning._INVPHI * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + tuning._INVPHI * (b - a)
            fd = f(math.exp(d))
    return math.exp(0.5 * (a + b)), seen


@settings(max_examples=50)
@given(
    targets=st.lists(st.floats(1.0, 60.0), min_size=1, max_size=6, unique=True),
    widths=st.lists(st.floats(1.001, 8.0), min_size=6, max_size=6),
    shifts=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
)
def test_lockstep_golden_follows_each_lone_search(targets, widths, shifts):
    # row i minimises (g - target_i)^2 on its own bracket; the target names
    # the row in each call, so every row's gains can be traced
    n = len(targets)
    target = np.array(targets)
    lo = np.maximum(1.0, target / widths[0] ** np.array(shifts[:n]))
    hi = lo * np.array(widths[:n])
    seen = {t: [] for t in targets}

    def fun(s, g):
        for t, gain in zip(s.tolist(), g.tolist()):
            seen[t].append(gain)
        return (g - s) * (g - s)

    got = tuning._golden_min(fun, target, lo, hi)
    for i, t in enumerate(targets):
        want, gains = _lone_golden(lambda g: (g - t) * (g - t), float(lo[i]), float(hi[i]))
        assert seen[t] == gains
        assert got[i] == want


def test_edge_sigmas_take_the_unit_gain_branch():
    # at 0.556 (0.55 with the noisiest ancillas) the grid minimum is G = 1,
    # yet a slightly larger gain does better, so the search refines
    # [1, grid[1]]; the array test below relies on it
    for objective, sigma_gkp in _CASES:
        sigma = 0.55 if sigma_gkp == 0.05 else 0.556
        fun = tuning._objective(objective, sigma_gkp)
        values = fun(sigma, tuning._grids(np.array([sigma]), objective)[0])
        assert np.argmin(values) == 0
        assert values[0] > fun(sigma, 1.0 + 1e-9)
        assert optimize(sigma, sigma_gkp, objective).g_star > 1.0


@settings(max_examples=12)
@given(sigmas=st.lists(st.floats(0.005, 0.9), max_size=4), case=st.sampled_from(_CASES))
def test_array_search_equals_lone_searches(sigmas, case):
    # 0.7 clamps to G = 1; 0.55 and 0.556 take the unit-gain branch
    objective, sigma_gkp = case
    sigma = np.array([0.7, 0.556, 0.55, *sigmas])
    batch = optimize(sigma, sigma_gkp, objective)
    for i, s in enumerate(sigma):
        lone = optimize(float(s), sigma_gkp, objective)
        for name in _FIELDS:
            value = getattr(lone, name)
            assert type(value) is float
            assert getattr(batch, name).shape == sigma.shape
            assert getattr(batch, name)[i].hex() == value.hex(), (s, name)


def test_working_point_fields_follow_the_gain():
    # lambda and dB come from G* exactly as squeeze_db_from_gain has them
    opt = optimize(np.linspace(0.02, 0.6, 30))
    for g, lam, db in zip(opt.g_star, opt.lambda_star, opt.squeeze_db):
        assert lam == math.sqrt(g) + math.sqrt(g - 1.0)
        assert db == squeeze_db_from_gain(float(g))


def test_array_search_shape_contract():
    sigma = np.array([[0.1, 0.7], [0.3, 0.05]])
    opt = optimize(sigma)
    for name in _FIELDS:
        assert getattr(opt, name).shape == (2, 2)
        assert getattr(opt, name)[1, 0] == getattr(optimize(0.3), name)
    assert all(type(v) is float for v in dataclasses.astuple(optimize(np.array(0.2))))
    for shape in ((0,), (3, 0)):
        empty = optimize(np.full(shape, 0.2), 0.05, "noisy_gkp")
        assert all(getattr(empty, name).shape == shape for name in _FIELDS)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_array_search_rejects_bad_sigma_before_searching(bad, monkeypatch):
    calls = []
    monkeypatch.setattr(tuning, "tms_variance", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=f"^sigma must be finite and positive, got {bad}$"):
        optimize(np.array([0.1, bad, -1.0]))
    assert calls == []


def test_one_objective_call_per_search_step(monkeypatch):
    # a search makes its grid call, the two starting points and one call
    # per golden-section step, then the final evaluation; sigmas in
    # lockstep take as many calls as the longest of their lone searches
    calls = []
    exact = tuning.tms_variance

    def counted(sigma, gain):
        calls.append(np.shape(sigma))
        return exact(sigma, gain)

    monkeypatch.setattr(tuning, "tms_variance", counted)
    lone = []
    for sigma in (0.1, 0.2, 0.3):
        calls.clear()
        optimize(sigma)
        lone.append(len(calls))
    assert lone == [27, 26, 25]
    calls.clear()
    optimize(np.array([0.1, 0.2, 0.3]))
    assert len(calls) == 27
    # the rows drop out of the calls as their searches end
    assert calls[-3:] == [(2,), (1,), (3,)]


# (args, GainOptimum fields) of searches made one sigma at a time, whose
# brackets were Python floats stepped with math.log and math.exp
_PINNED = [
    ((0.1,), ["0x1.33a045d5e3fa6p+2", "0x1.092eb075d2520p+2", "0x1.8b1d07e53c7bcp+3",
              "0x1.254dda7462d5fp-5", "0x1.f3419c9b0fb78p+2"]),
    ((0.556,), ["0x1.00731e24cc8eap+0", "0x1.0af43b9dbc681p+0", "0x1.74aa30bd1407dp-2",
                "0x1.1caaf49a8cf94p-1", "0x1.0001efac61e38p+0"]),
    ((0.3, gkp_sigma_from_db(20.0), "noisy_gkp"),
     ["0x1.5cfe0ba1004fap+0", "0x1.c53187a13151cp+0", "0x1.3d7ef44d4a38ep+2",
      "0x1.06fa861ad3f1ep-2", "0x1.5d55a518610a3p+0"]),
    ((0.05, 0.0, "erfc_approx"),
     ["0x1.baf66c3ea33ebp+3", "0x1.d37848e127444p+2", "0x1.1457f3ed0317cp+4",
      "0x1.49ddcddd9aa40p-7", "0x1.8ab70acecbe63p+4"]),
]


def test_searches_keep_their_bits():
    for args, fields in _PINNED:
        assert [v.hex() for v in dataclasses.astuple(optimize(*args))] == fields, args
    assert threshold_sigma().hex() == "0x1.1df0a3d70a3d8p-1"
    assert threshold_sigma(gkp_sigma_from_db(20.0)).hex() == "0x1.16bd70a3d70a4p-1"


# sha256 of every GainOptimum field's bytes, field after field, for the
# lockstep grids of the CLI: fig45's, and fig8's at each of its ancilla
# levels; their rows end their searches at different steps
_PINNED_GRIDS = [
    ((np.linspace(0.02, 0.6, 30),),
     "ccc64eb01af50151dc97fb720d928a99124361aa7abf683c97317e15ff641b8c"),
    *(((np.linspace(0.05, 0.6, 12), gkp_sigma_from_db(db), "noisy_gkp"), digest)
      for db, digest in [
          (11.0, "c27f423bb36eaa3fbfe79f08ccd2f138a0ff9ea94cce25cfd86c6d996ca2776d"),
          (12.8, "d9547e4162eb578c5b67b1c596db50ad4f011c234465f12e046dd07022a908fc"),
          (15.0, "c19e39ebff113befca4e69749deb3f8446c8747ed356d479a0b5a970ea34c771"),
          (20.0, "db0a0356721a0ea96e7eb7b926d6ea5059e31143a28f0f9588bc60b816a17055"),
          (25.0, "c9f629ccbead86b0c48205f1c05a62bd8e8597e0fdda70122f57e4bbc710982d"),
          (30.0, "9309f0e227179420914b112a578cbbbfe9666beff5e0307df2b98398626fb283"),
          (math.inf, "9f38d0e65b0fe56378f300e9ca859ac01aea9d931dfe9cc78039bcf9a3389447"),
      ]),
]


def test_lockstep_grids_keep_their_bits():
    for args, digest in _PINNED_GRIDS:
        h = hashlib.sha256()
        for field in dataclasses.astuple(optimize(*args)):
            h.update(field.tobytes())
        assert h.hexdigest() == digest, args[1:]


def test_a_tolerance_below_the_float_spacing_ends_the_search(monkeypatch):
    # once the bracket is two adjacent floats its midpoint is one of them,
    # and no halving meets a tolerance finer than their spacing
    calls = []

    def limited(f):
        def call(*args):
            calls.append(args)
            assert len(calls) < 200, "the search does not end"
            return f(*args)
        return call

    assert abs(tuning._bisect(0.0, 1.0, 1e-300, limited(lambda mid: mid < 0.3)) - 0.3) < 1e-15
    calls.clear()
    monkeypatch.setattr(tuning, "optimize", limited(tuning.optimize))
    assert abs(threshold_sigma(tol=1e-300) - threshold_sigma()) < 1e-4


@pytest.mark.slow
def test_critical_squeezing_keeps_its_bits():
    assert critical_gkp_squeezing_db() == 10.9091796875


@pytest.mark.slow
def test_critical_squeezing_searches_every_window_sigma():
    # at 10.95 dB encoding still helps at sigma = 0.34, a sigma of the
    # window, so the critical squeezing lies below 10.95 dB
    sigma_gkp = gkp_sigma_from_db(10.95)
    assert optimize(0.34, sigma_gkp, "noisy_gkp").g_star > 1.0
    assert tuning._any_window(sigma_gkp)
    assert critical_gkp_squeezing_db() <= 10.95


@pytest.mark.parametrize("sigma_gkp, objective", [(0.0, "exact"), (0.1, "noisy_gkp")])
@pytest.mark.parametrize(
    "sigma", [1e-90, 1e-200, np.array([0.1, 1e-90, 1e-100])], ids=["lone", "tiny", "array"]
)
def test_a_sigma_whose_gain_grid_overflows_is_refused(sigma, sigma_gkp, objective):
    # below ~1.08e-77 G (G - 1) overflowed at the grid's top, pi / (2 sigma^2),
    # and the search died with an ArithmeticError naming the gain; below
    # ~1e-154 the grid itself overflowed, and the error named gain = inf
    first = sigma if np.ndim(sigma) == 0 else sigma[1]
    with pytest.raises(ValueError, match=f"^sigma must keep the gain grid's top.*got {first}$"):
        optimize(sigma, sigma_gkp, objective)


@pytest.mark.parametrize(
    "least, objective", [(1.0823832142339445e-77, "exact"), (2.4234887802370514e-77, "erfc_approx")]
)
def test_the_least_sigma_a_search_takes_is_where_its_formula_overflows(least, objective):
    # every sigma a search took before still searches; the float below the
    # least overflowed the objective (numpy warned) and is now refused
    assert optimize(least, 0.0, objective).g_star >= 1.0
    with pytest.raises(ValueError, match=f"for the {objective!r} objective"):
        optimize(float(np.nextafter(least, 0.0)), 0.0, objective)
