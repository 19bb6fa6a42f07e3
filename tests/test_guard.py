import math
import re

import numpy as np
import pytest

from gkpstab._guard import checked, counted
from gkpstab.analytic import MixturePdf, tms_variance
from gkpstab.cli import ExperimentConfig, cmd_appendix_d
from gkpstab.codes import gkp_squeezed_repetition, gkp_tms
from gkpstab.decoders import Decoder
from gkpstab.modular import centered_mod
from gkpstab.montecarlo import run
from gkpstab.noise import draw_normal, gkp_sigma_from_db, stream_rng
from gkpstab.symplectic import (
    SymplecticTransform,
    beam_splitter,
    identity,
    is_symplectic,
    single_mode_squeeze,
    two_mode_squeeze,
)
from gkpstab.tuning import optimize

# a value that is no number at all
_OBJECT = object()
# the lower bound of each kind whose upper bound is infinite
_BOUNDARY = {
    "positive": 0.0, "nonnegative": 0.0, ">= 1": 1.0, "> 1": 1.0, "finite": -math.inf,
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call, name, kind",
    [
        (lambda v: single_mode_squeeze(v, 1, 2), "scale", "positive"),
        (lambda v: two_mode_squeeze(v, 1, 2, 2), "gain", ">= 1"),
        (lambda v: gkp_tms(v), "gain", ">= 1"),
        (lambda v: gkp_squeezed_repetition(3, v), "lam", "> 1"),
        (lambda v: centered_mod(1.0, v), "period", "positive"),
    ],
)
def test_gate_and_period_arguments_reject_non_finite(call, name, kind, bad):
    # the error names the argument and its value before any matrix is built
    message = f"{name} must be finite and {kind}, got {bad}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("kind", sorted(_BOUNDARY))
def test_scalar_and_array_paths_agree(kind):
    bound = _BOUNDARY[kind]
    values = [bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf),
              2.0, -2.0, 1e308, math.nan, math.inf, -math.inf]
    for v in values:
        forms = [v, np.float64(v), np.array(v), np.array([v]), [2.0, v]]
        outcomes = []
        for form in forms:
            try:
                assert checked("x", form, kind) is form
                outcomes.append(None)
            except ValueError as err:
                outcomes.append(str(err))
        assert len(set(outcomes)) == 1, (v, outcomes)
        accepted = outcomes[0] is None
        strict = kind in ("positive", "> 1")
        assert accepted == (math.isfinite(v) and (v > bound if strict else v >= bound))


def test_array_names_first_bad_element():
    with pytest.raises(ValueError, match=r"^x must be finite and >= 1, got 0\.5$"):
        checked("x", np.array([[1.0, 0.5], [math.nan, 2.0]]), ">= 1")
    empty = np.zeros((0, 3))
    assert checked("x", empty, "positive") is empty


def test_counted_takes_integers_of_at_least_the_bound():
    for value in (3, np.int64(3), np.uint8(3), np.int64(2)):
        assert counted("n", value, 2) is value
    for bad in (True, np.bool_(True), 2.0, 2.5, np.float64(3.0), "3", None):
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            counted("n", bad, 2)
    with pytest.raises(ValueError, match=r"^n must be >= 2, got 1$"):
        counted("n", np.int64(1), 2)


@pytest.mark.parametrize(
    "call, message",
    [
        # each of these took the bool as 0 or 1: the identity gate, the
        # variance at sigma = 1, a Monte Carlo at sigma = 1, a stored False
        (lambda: two_mode_squeeze(True, 1, 2, 2), "gain must be a real number, got True"),
        (lambda: tms_variance(True, 2.0), "sigma must be a real number, got True"),
        (lambda: run(gkp_tms(2.0), Decoder.for_code(gkp_tms(2.0), 0.1), True, 10, 1),
         "sigma must be a real number, got True"),
        (lambda: gkp_tms(2.0, sigma_gkp=False),
         "ancilla_sigma_gkp must be a real number, got False"),
        (lambda: optimize(np.array([True, True])),
         "sigma must be a real number, got array([ True,  True])"),
        # each of these took the bool as 0 or 1 too: the identity beam
        # splitter, sigma_gkp at 1 dB, the grid [0.5, 1.0], a mixture of
        # one component, the identity matrix, a draw at sigma = 1, a run at
        # wrap constant 1 and tol = 1
        (lambda: beam_splitter(True, 1, 2, 2), "transmissivity must be a real number, got True"),
        (lambda: gkp_sigma_from_db(True), "squeeze_db must be a real number, got True"),
        (lambda: ExperimentConfig("fig3", sigma_min=0.5, sigma_max=True, points=2),
         "sigma_max must be a real number, got True"),
        (lambda: ExperimentConfig("fig3", sigma_min=True, sigma_max=2.0, points=2),
         "sigma_min must be a real number, got True"),
        (lambda: MixturePdf(np.array([True, False]), np.array([0.0, 1.0]), 1.0),
         "weights must be a real number, got array([ True, False])"),
        (lambda: MixturePdf(np.array([1.0]), [False], 1.0),
         "shifts must be a real number, got [False]"),
        (lambda: SymplecticTransform(np.eye(2, dtype=bool)),
         "matrix must be a real number, got array([[ True, False],\n"
         "       [False,  True]])"),
        (lambda: SymplecticTransform([[True, 0.0], [0.0, True]]),
         "matrix must be a real number, got [[True, 0.0], [0.0, True]]"),
        (lambda: SymplecticTransform(((1.0, 0.0), (0.0, np.bool_(True)))),
         "matrix must be a real number, got ((1.0, 0.0), (0.0, np.True_))"),
        (lambda: SymplecticTransform(np.array([[1.0, 0.0], [0.0, True]], dtype=object)),
         "matrix must be a real number, got array([[1.0, 0.0],\n"
         "       [0.0, True]], dtype=object)"),
        (lambda: draw_normal(stream_rng(1), True, (2,)), "sigma must be a real number, got True"),
        (lambda: cmd_appendix_d(ExperimentConfig("appendix-d", sigma_min=0.01, sigma_max=0.05,
                                                 points=2, n_trials=10), wrap_constant=True),
         "wrap_constant must be a real number, got True"),
        (lambda: is_symplectic(identity(1), tol=True), "tol must be a real number, got True"),
        # numpy turns a bool inside a list into a float before the check
        (lambda: tms_variance([True, 0.5], 2.0), "sigma must be a real number, got [True, 0.5]"),
        (lambda: optimize([True, 0.1]), "sigma must be a real number, got [True, 0.1]"),
        # numpy orders complex values lexicographically, so each of these
        # passed the bounds, and a record dropped the imaginary part
        (lambda: checked("x", 0.1 + 1j, "positive"), "x must be a real number, got (0.1+1j)"),
        (lambda: checked("x", np.complex128(0.5), "in [0, 1]"),
         "x must be a real number, got np.complex128(0.5+0j)"),
        (lambda: checked("x", np.array([0.5, 1j]), "finite"),
         "x must be a real number, got array([0.5+0.j, 0. +1.j])"),
        (lambda: checked("x", [0.5, np.complex64(1j)], "nonnegative"),
         "x must be a real number, got [0.5, np.complex64(1j)]"),
        # the comparison raised a bare TypeError here
        (lambda: checked("x", np.array([0.5, 1j], dtype=object), ">= 1"),
         "x must be a real number, got array([0.5, 1j], dtype=object)"),
        (lambda: Decoder.for_code(gkp_tms(2.0), 0.1 + 1j),
         "sigma must be a real number, got (0.1+1j)"),
        (lambda: Decoder(1, (1,), [[0.0], [1.0 + 0j], [0.0]]),
         "weights must be a real number, got [[0.0], [(1+0j)], [0.0]]"),
        (lambda: MixturePdf(np.array([1.0 + 0j]), np.array([0.0]), 1.0),
         "weights must be a real number, got array([1.+0.j])"),
        (lambda: beam_splitter(0.5 + 0j, 1, 2, 2),
         "transmissivity must be a real number, got (0.5+0j)"),
        # numpy parsed the strings as the identity matrix
        (lambda: SymplecticTransform([["1", "0"], ["0", "1"]]),
         "matrix must be a real number, got [['1', '0'], ['0', '1']]"),
        # the comparison raised a bare TypeError here too
        (lambda: checked("x", None, "finite"), "x must be a real number, got None"),
        (lambda: checked("x", _OBJECT, "finite"), f"x must be a real number, got {_OBJECT!r}"),
        (lambda: tms_variance([0.1, None], 2.0), "sigma must be a real number, got [0.1, None]"),
    ],
    ids=["two_mode_squeeze", "tms_variance", "run", "gkp_tms", "optimize", "beam_splitter",
         "gkp_sigma_from_db", "sigma_max", "sigma_min", "mixture_weights", "mixture_shifts",
         "transform_matrix", "transform_nested_list", "transform_tuple",
         "transform_object_array", "draw_normal", "wrap_constant", "is_symplectic",
         "tms_variance_list", "optimize_list", "complex", "numpy_complex", "complex_array",
         "complex_in_list", "complex_in_object_array", "for_code_complex_sigma",
         "decoder_complex_weights", "mixture_complex_weights", "beam_splitter_complex",
         "transform_strings", "none", "object", "none_in_list"],
)
def test_real_arguments_reject_a_bool(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("kind", sorted(_BOUNDARY) + ["in [0, 1]"])
def test_checked_rejects_every_bool_form(kind):
    # numpy turns the bool inside a list, a tuple or a nested list into a float
    inside = ([True, 0.5], (0.5, True), [[0.5, 1.0], [np.bool_(False), 2.0]],
              np.array([0.5, True], dtype=object))
    for bad in (True, False, np.bool_(True), np.array(True), np.array([True, False])) + inside:
        with pytest.raises(ValueError, match=r"^x must be a real number, got "):
            checked("x", bad, kind)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda a: SymplecticTransform(a[:2, :2]), "matrix"),
        (lambda a: Decoder(1, (1,), a[1:, 2:3]), "weights"),
        (lambda a: MixturePdf(a[0, :1], a[1, :1], 1.0), "weights"),
        (lambda a: MixturePdf(a[0, :1], a[1, :1], 1.0), "shifts"),
    ],
    ids=["transform", "decoder", "mixture_weights", "mixture_shifts"],
)
def test_records_hold_a_read_only_copy(build, field):
    # the record freezes its own float copy, never the caller's array
    a = np.eye(4)
    record = build(a)
    held = getattr(record, field)
    assert not held.flags.writeable and not np.shares_memory(held, a)
    assert a.flags.writeable
    a[:] = 7.0
    assert 7.0 not in held


def test_checked_unit_interval():
    for good in (0.0, 1.0, 0.5, 0, 1, np.float64(1.0), np.array([0.0, 1.0])):
        assert checked("t", good, "in [0, 1]") is good
    for bad in (np.nextafter(1.0, 2.0), -0.1, math.nan, math.inf):
        for form in (bad, np.array([0.5, bad])):
            with pytest.raises(ValueError, match=f"^t must be finite and in \\[0, 1\\], got {bad}$"):
                checked("t", form, "in [0, 1]")


def test_int_float_and_numpy_float_arguments_keep_their_bits():
    # the raw argument is checked before the conversion to float
    forms = [(1, 2), (1.0, 2.0), (np.float64(1.0), np.int64(2))]
    assert len({tms_variance(s, g).hex() for s, g in forms}) == 1
    for forms in ([0, 0.0, np.float64(0.0)], [1, 1.0, np.float64(1.0)], [0.37, np.float64(0.37)]):
        assert len({beam_splitter(t, 1, 2, 2).matrix.tobytes() for t in forms}) == 1
    for forms in ([11, 11.0, np.float64(11.0)], [12.8, np.float64(12.8)]):
        assert len({gkp_sigma_from_db(db).hex() for db in forms}) == 1
