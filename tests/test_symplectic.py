import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkpstab.noise import stream_rng
from gkpstab.symplectic import (
    SymplecticTransform,
    apply,
    beam_splitter,
    compose,
    direct_sum,
    identity,
    inverse,
    is_symplectic,
    omega,
    single_mode_squeeze,
    sum_gate,
    two_mode_squeeze,
)


def test_omega_blocks():
    w = omega(2)
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(w[:2, :2], block)
    assert np.array_equal(w[2:, 2:], block)
    assert np.array_equal(w[:2, 2:], np.zeros((2, 2)))


def test_identity():
    assert np.array_equal(identity(3).matrix, np.eye(6))


def test_sum_gate_action():
    """q_target picks up q_control, p_control loses p_target."""
    s = sum_gate(1, 2, 2)
    v = np.array([1.0, 0.0, 0.0, 0.0])  # q1 = 1
    assert np.allclose(apply(s, v), [1.0, 0.0, 1.0, 0.0])
    v = np.array([0.0, 0.0, 0.0, 1.0])  # p2 = 1
    assert np.allclose(apply(s, v), [0.0, -1.0, 0.0, 1.0])
    v = np.array([0.0, 1.0, 0.0, 0.0])  # p1 untouched
    assert np.allclose(apply(s, v), [0.0, 1.0, 0.0, 0.0])


def test_sum_gate_mode_order_matters():
    assert not np.array_equal(sum_gate(1, 2, 2).matrix, sum_gate(2, 1, 2).matrix)


def test_single_mode_squeeze():
    s = single_mode_squeeze(2.0, 2, 2)
    v = np.array([1.0, 1.0, 1.0, 1.0])
    assert np.allclose(apply(s, v), [1.0, 1.0, 2.0, 0.5])


def test_two_mode_squeeze_matrix():
    gain = 3.0
    cg, sg = math.sqrt(gain), math.sqrt(gain - 1.0)
    expected = np.array(
        [
            [cg, 0.0, sg, 0.0],
            [0.0, cg, 0.0, -sg],
            [sg, 0.0, cg, 0.0],
            [0.0, -sg, 0.0, cg],
        ]
    )
    assert np.allclose(two_mode_squeeze(gain, 1, 2, 2).matrix, expected)


def test_two_mode_squeeze_unit_gain_is_identity():
    assert np.allclose(two_mode_squeeze(1.0, 1, 2, 2).matrix, np.eye(4))


def test_beam_splitter_limits():
    assert np.allclose(beam_splitter(1.0, 1, 2, 2).matrix, np.eye(4))
    swapped = apply(beam_splitter(0.0, 1, 2, 2), np.array([1.0, 2.0, 0.0, 0.0]))
    assert np.allclose(swapped, [0.0, 0.0, -1.0, -2.0])


def test_beam_splitter_is_orthogonal():
    s = beam_splitter(0.37, 1, 2, 2).matrix
    assert np.allclose(s @ s.T, np.eye(4), atol=1e-14)


def test_compose_applies_rightmost_first():
    a = sum_gate(1, 2, 2)
    b = single_mode_squeeze(2.0, 1, 2)
    v = np.array([1.0, 0.0, 0.0, 0.0])
    # compose(a, b) means apply b, then a
    got = apply(compose(a, b), v)
    want = apply(a, apply(b, v))
    assert np.allclose(got, want)
    assert not np.allclose(got, apply(b, apply(a, v)))


def test_inverse_is_exact():
    t = compose(
        sum_gate(1, 3, 3),
        single_mode_squeeze(1.7, 2, 3),
        two_mode_squeeze(2.5, 1, 2, 3),
        beam_splitter(0.3, 2, 3, 3),
    )
    prod = compose(t, inverse(t)).matrix
    assert np.allclose(prod, np.eye(6), atol=1e-13)
    # the inverse comes from the symplectic form, not numeric inversion
    w = omega(3)
    assert np.array_equal(inverse(t).matrix, -w @ t.matrix.T @ w)


def test_randomized_products_stay_symplectic():
    gen = stream_rng(99, 0)
    gates = [
        lambda n, g: sum_gate(1, 2, n),
        lambda n, g: single_mode_squeeze(math.exp(g.uniform(-0.6, 0.6)), 1, n),
        lambda n, g: two_mode_squeeze(g.uniform(1.0, 4.0), 1, 2, n),
        lambda n, g: beam_splitter(g.uniform(0, 1), 1, 2, n),
    ]
    for _ in range(200):
        n = int(gen.integers(2, 5))
        parts = [gates[int(gen.integers(4))](n, gen) for _ in range(3)]
        t = compose(*parts)
        assert is_symplectic(t, tol=1e-12)


def test_is_symplectic_rejects_junk():
    bad = SymplecticTransform(2, np.eye(4) * 1.01)
    assert not is_symplectic(bad)


def test_apply_broadcasts():
    s = sum_gate(1, 2, 2)
    batch = np.arange(12.0).reshape(3, 4)
    rows = np.stack([apply(s, row) for row in batch])
    assert np.allclose(apply(s, batch), rows)


def test_direct_sum():
    t = direct_sum(single_mode_squeeze(2.0, 1, 1), identity(1))
    assert t.n_modes == 2
    assert np.allclose(t.matrix, np.diag([2.0, 0.5, 1.0, 1.0]))


@pytest.mark.parametrize(
    "builder",
    [
        lambda: sum_gate(1, 1, 2),
        lambda: sum_gate(0, 2, 2),
        lambda: sum_gate(1, 3, 2),
        lambda: single_mode_squeeze(0.0, 1, 1),
        lambda: single_mode_squeeze(1.0, 2, 1),
        lambda: two_mode_squeeze(0.5, 1, 2, 2),
        lambda: beam_splitter(1.5, 1, 2, 2),
        lambda: beam_splitter(-0.1, 1, 2, 2),
    ],
)
def test_invalid_parameters_raise(builder):
    with pytest.raises(ValueError):
        builder()


@st.composite
def _circuit(draw, n_modes):
    """A product of one to four random gates on any pair of modes."""
    gates = []
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(st.permutations(range(1, n_modes + 1)))[:2]
        kind = draw(st.sampled_from(("sum", "squeeze", "tms", "bs")))
        if kind == "sum":
            gates.append(sum_gate(a, b, n_modes))
        elif kind == "squeeze":
            gates.append(single_mode_squeeze(math.exp(draw(st.floats(-1.0, 1.0))), a, n_modes))
        elif kind == "tms":
            gates.append(two_mode_squeeze(draw(st.floats(1.0, 5.0)), a, b, n_modes))
        else:
            gates.append(beam_splitter(draw(st.floats(0.0, 1.0)), a, b, n_modes))
    return compose(*gates)


_pairs = st.integers(2, 4).flatmap(lambda n: st.tuples(_circuit(n), _circuit(n)))


def _rounding_bound(a, b):
    # entrywise rounding budget of a matrix product a @ b
    return 1e-13 * max(1.0, float((np.abs(a) @ np.abs(b)).max()))


@settings(max_examples=100)
@given(_pairs)
def test_inverse_of_product_reverses_the_inverses(pair):
    a, b = pair
    lhs = inverse(compose(a, b)).matrix
    rhs = compose(inverse(b), inverse(a)).matrix
    assert np.abs(lhs - rhs).max() <= _rounding_bound(a.matrix, b.matrix)


@settings(max_examples=100)
@given(_pairs)
def test_product_times_its_inverse_is_identity(pair):
    s = compose(*pair)
    s_inv = inverse(s)
    eye = np.eye(2 * s.n_modes)
    assert np.abs(compose(s, s_inv).matrix - eye).max() <= _rounding_bound(s.matrix, s_inv.matrix)


@settings(max_examples=100)
@given(_pairs)
def test_random_products_are_symplectic(pair):
    s = compose(*pair).matrix
    assert is_symplectic(compose(*pair), tol=_rounding_bound(s, s.T))
