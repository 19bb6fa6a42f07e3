import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkpstab.codes import (
    CodeSpec,
    gaussian_repetition,
    gkp_repetition,
    gkp_squeezed_repetition,
    gkp_tms,
    gkp_tms_pair,
    logical_gate,
)
from gkpstab.decoders import Decoder
from gkpstab.symplectic import (
    apply,
    beam_splitter,
    compose,
    identity,
    inverse,
    is_symplectic,
    single_mode_squeeze,
    sum_gate,
    two_mode_squeeze,
)


def test_gkp_repetition_is_one_sum_gate():
    code = gkp_repetition()
    assert np.array_equal(code.encoder.matrix, sum_gate(1, 2, 2).matrix)
    assert code.data_modes == 1
    assert code.ancilla_kind == "gkp"


def test_gaussian_repetition_copies_position():
    code = gaussian_repetition(3)
    v = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])  # q1 = 1
    assert np.allclose(apply(code.encoder, v), [1, 0, 1, 0, 1, 0])
    # back-action: ancilla momentum pushes onto the data mode
    v = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])  # p2 = 1
    assert np.allclose(apply(code.encoder, v), [0, -1, 0, 1, 0, 0])
    assert code.ancilla_kind == "position"


def test_gkp_tms_encoder():
    code = gkp_tms(3.0)
    assert np.allclose(code.encoder.matrix, two_mode_squeeze(3.0, 1, 2, 2).matrix)


def test_gkp_tms_pair_reshapes_like_two_copies():
    gain = 4.0
    code = gkp_tms_pair(gain)
    assert code.n_modes == 4 and code.data_modes == 2
    t = inverse(code.encoder).matrix
    single = inverse(two_mode_squeeze(gain, 1, 2, 2)).matrix
    # mode pairs (1,3) and (2,4) behave like independent two-mode codes
    idx_a = [0, 1, 4, 5]
    idx_b = [2, 3, 6, 7]
    assert np.allclose(t[np.ix_(idx_a, idx_a)], single)
    assert np.allclose(t[np.ix_(idx_b, idx_b)], single)
    assert np.allclose(t[np.ix_(idx_a, idx_b)], 0.0)


def test_gkp_tms_pair_transversal_beam_splitter():
    """Applying the beam splitter pairwise commutes with the encoding, so
    the logical gate is realized by the same transversal physical gates."""
    code = gkp_tms_pair(2.5)
    mixer = beam_splitter(0.5, 1, 2, 2)
    logical = logical_gate(code, mixer, aux=mixer)
    physical = compose(
        beam_splitter(0.5, 1, 2, 4), beam_splitter(0.5, 3, 4, 4)
    )
    assert np.allclose(logical.matrix, physical.matrix, atol=1e-12)


@pytest.mark.parametrize("n_modes", [2, 3, 4, 5])
def test_squeezed_repetition_chain_structure(n_modes):
    """The inverse encoder must expose bidiagonal position chains and
    triangular momentum chains; the decoder's read order (momenta from
    the last mode back) relies on this shape."""
    lam = 1.7
    code = gkp_squeezed_repetition(n_modes, lam)
    assert is_symplectic(code.encoder, tol=1e-10)
    t = inverse(code.encoder).matrix
    tq = t[0::2, 0::2]
    tp = t[1::2, 1::2]
    assert np.abs(t[0::2, 1::2]).max() < 1e-10
    assert np.abs(t[1::2, 0::2]).max() < 1e-10
    assert tq[0, 0] == pytest.approx(lam ** (n_modes - 1), rel=1e-12)
    assert tp[0, 0] == pytest.approx(lam ** (1 - n_modes), rel=1e-12)
    for k in range(1, n_modes):
        assert tq[k, k - 1] == pytest.approx(-lam, rel=1e-12)
        assert tq[k, k] == pytest.approx(1.0 / lam, rel=1e-12)
        assert tp[k, k] == pytest.approx(lam, rel=1e-12)
    assert np.abs(np.tril(tp, -1)).max() < 1e-10


def test_squeezed_repetition_three_mode_reshape():
    """Reshaped noise of the three-mode chain, component by component."""
    lam = 1.3
    t = inverse(gkp_squeezed_repetition(3, lam).encoder).matrix
    expected = np.zeros((6, 6))
    expected[0, 0] = lam**2                      # z_q1 = lam^2 xi_q1
    expected[1, 1] = lam**-2                     # z_p1 = xi_p1/lam^2 + xi_p2 + lam^2 xi_p3
    expected[1, 3] = 1.0
    expected[1, 5] = lam**2
    expected[2, 0] = -lam                        # z_q2 = -lam xi_q1 + xi_q2/lam
    expected[2, 2] = 1.0 / lam
    expected[3, 3] = lam                         # z_p2 = lam xi_p2 + lam^3 xi_p3
    expected[3, 5] = lam**3
    expected[4, 2] = -lam                        # z_q3 = -lam xi_q2 + xi_q3/lam
    expected[4, 4] = 1.0 / lam
    expected[5, 5] = lam                         # z_p3 = lam xi_p3
    assert np.allclose(t, expected, atol=1e-12)


def test_squeezed_repetition_validation():
    with pytest.raises(ValueError):
        gkp_squeezed_repetition(1, 2.0)
    with pytest.raises(ValueError):
        gkp_squeezed_repetition(3, 1.0)
    with pytest.raises(ValueError):
        gkp_squeezed_repetition(3, 0.5)
    # lam ** 2 is beyond float range; it raised a bare OverflowError
    with pytest.raises(ValueError, match=r"^lam must keep the 3-mode circuit and its decoder "
                                         r"finite, got 1e\+200$"):
        gkp_squeezed_repetition(3, 1e200)


@settings(max_examples=200)
@given(
    n_modes=st.integers(2, 6),
    log_lam=st.floats(0.0, 308.0, exclude_min=True),
    sigma_gkp=st.sampled_from([0.0, 0.05]),
)
def test_squeezed_repetition_refuses_a_lam_that_overflows(n_modes, log_lam, sigma_gkp):
    # a lam whose powers stay finite used to overflow the circuit's or the
    # decoder's matmuls, warn, and fail later as a nan matrix or weights;
    # the suite's filter turns any RuntimeWarning into an error here
    try:
        code = gkp_squeezed_repetition(n_modes, 10.0**log_lam, sigma_gkp)
    except ValueError as err:
        assert str(err).startswith("lam must ")
        return
    decoder = Decoder.for_code(code, 0.01)
    assert np.isfinite(code.encoder.matrix).all()
    assert np.isfinite(decoder.weights).all()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: gaussian_repetition(2.5), "n_modes must be an integer, got 2.5"),
        (lambda: gaussian_repetition(1), "n_modes must be >= 2, got 1"),
        (lambda: gkp_squeezed_repetition(3.0, 2.0), "n_modes must be an integer, got 3.0"),
        (lambda: gkp_squeezed_repetition(True, 2.0), "n_modes must be an integer, got True"),
        (lambda: CodeSpec(identity(2), 1.5), "data_modes must be an integer, got 1.5"),
        (lambda: CodeSpec(identity(2), True), "data_modes must be an integer, got True"),
        (lambda: CodeSpec(identity(2), 0), "data_modes must be >= 1, got 0"),
    ],
)
def test_code_counts_must_be_integers(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_code_counts_take_numpy_integers():
    n = np.int64(3)
    for build in (gaussian_repetition, lambda m: gkp_squeezed_repetition(m, 2.0)):
        assert np.array_equal(build(n).encoder.matrix, build(3).encoder.matrix)
    assert CodeSpec(identity(2), np.int32(1)).data_modes == 1


def test_code_spec_validation():
    enc = sum_gate(1, 2, 2)
    with pytest.raises(ValueError):
        CodeSpec(encoder=enc, data_modes=2)
    with pytest.raises(ValueError):
        CodeSpec(encoder=enc, data_modes=1, ancilla_kind="thermal")
    with pytest.raises(ValueError):
        CodeSpec(encoder=enc, data_modes=1, ancilla_sigma_gkp=-0.1)
    # a bare matrix has no n_modes: the error names the argument instead
    with pytest.raises(ValueError, match="^encoder must be a SymplecticTransform, got ndarray$"):
        CodeSpec(encoder=np.eye(4), data_modes=1)


def test_code_spec_rejects_non_finite_ancilla_noise():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="ancilla_sigma_gkp"):
            gkp_repetition(bad)
        with pytest.raises(ValueError, match="ancilla_sigma_gkp"):
            CodeSpec(encoder=sum_gate(1, 2, 2), data_modes=1, ancilla_sigma_gkp=bad)


def test_logical_gate_identity_and_shapes():
    code = gkp_repetition()
    assert np.allclose(logical_gate(code, identity(1)).matrix, np.eye(4))
    gate = logical_gate(code, single_mode_squeeze(2.0, 1, 1))
    assert is_symplectic(gate)
    with pytest.raises(ValueError):
        logical_gate(code, identity(2))
    with pytest.raises(ValueError):
        logical_gate(code, identity(1), aux=identity(2))
