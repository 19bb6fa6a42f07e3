import math
import re

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
    bad = SymplecticTransform(np.eye(4) * 1.01)
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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: sum_gate(True, 2, 2), "mode index must be an integer, got True"),
        (lambda: sum_gate(1.5, 2, 2), "mode index must be an integer, got 1.5"),
        (lambda: sum_gate(1, 2, 2.0), "n_modes must be an integer, got 2.0"),
        (lambda: sum_gate(0, 2, 2), "mode index must be >= 1, got 0"),
        (lambda: sum_gate(1, 3, 2), "mode index 3 out of range for 2 modes"),
        (lambda: single_mode_squeeze(2.0, 1, 0), "n_modes must be >= 1, got 0"),
        (lambda: beam_splitter(0.5, 1, 2.0, 2), "mode index must be an integer, got 2.0"),
        (lambda: identity(1.5), "n_modes must be an integer, got 1.5"),
        (lambda: identity(0), "n_modes must be >= 1, got 0"),
        (lambda: omega(0), "n_modes must be >= 1, got 0"),
        (lambda: omega(False), "n_modes must be an integer, got False"),
    ],
)
def test_mode_counts_and_indices_must_be_integers(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_mode_counts_and_indices_take_numpy_integers():
    gate = sum_gate(np.int64(1), np.int32(2), np.int64(2))
    assert np.array_equal(gate.matrix, sum_gate(1, 2, 2).matrix)
    assert identity(np.int64(2)).n_modes == 2
    assert np.array_equal(omega(np.int64(2)), omega(2))


@pytest.mark.parametrize("shape", [(3, 3), (2, 4), (0, 0), (2, 2, 2)])
def test_transform_rejects_a_matrix_that_is_not_2n_by_2n(shape):
    with pytest.raises(ValueError, match=r"is not 2N x 2N with N >= 1$"):
        SymplecticTransform(np.ones(shape))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_transform_rejects_non_finite_entries(bad):
    m = np.eye(4)
    m[2, 1] = bad
    with pytest.raises(ValueError, match=f"^matrix must be finite, got {bad}$"):
        SymplecticTransform(m)


@pytest.mark.parametrize("matrix", [np.eye(2) * (1 + 1j), np.eye(4, dtype=complex)])
def test_transform_rejects_a_complex_matrix(matrix):
    # casting to float would drop the imaginary part without an error
    with pytest.raises(ValueError, match=r"^matrix must be a real number, got array\(\[\["):
        SymplecticTransform(matrix)


def test_squeeze_names_a_scale_whose_reciprocal_overflows():
    with pytest.raises(ValueError, match="^scale must have a finite reciprocal, got 5e-324$"):
        single_mode_squeeze(5e-324, 1, 1)


def test_omega_returns_a_fresh_array():
    w = omega(2)
    w[0, 1] = 7.0
    assert omega(2)[0, 1] == 1.0
    assert is_symplectic(identity(2))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_mode_count_is_half_the_matrix_size(n):
    t = SymplecticTransform(np.eye(2 * n))
    assert t.n_modes == len(t.matrix) // 2 == n


def _written_out(n, a, b, gain, scale, eta):
    # each gate as scalar stores into the identity, entry by entry
    def q(j):
        return 2 * (j - 1)

    def p(j):
        return 2 * (j - 1) + 1

    add, squeeze, tms, bs = (np.eye(2 * n) for _ in range(4))
    add[q(b), q(a)] += 1.0
    add[p(a), p(b)] -= 1.0
    squeeze[q(a), q(a)] = scale
    squeeze[p(a), p(a)] = 1.0 / scale
    c, s = np.sqrt(gain), np.sqrt(gain - 1.0)
    for j in (a, b):
        tms[q(j), q(j)] = c
        tms[p(j), p(j)] = c
    tms[q(a), q(b)] = s
    tms[p(a), p(b)] = -s
    tms[q(b), q(a)] = s
    tms[p(b), p(a)] = -s
    t, r = np.sqrt(eta), np.sqrt(1.0 - eta)
    for j in (q, p):
        bs[j(a), j(a)] = t
        bs[j(b), j(b)] = t
        bs[j(a), j(b)] = r
        bs[j(b), j(a)] = -r
    return add, squeeze, tms, bs


_modes = st.integers(2, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.permutations(range(1, n + 1)))
)


@settings(max_examples=200)
@given(
    _modes,
    st.floats(1.0, 1e6),
    st.floats(0.0, 1e3, exclude_min=True),
    st.floats(0.0, 1.0),
)
def test_gate_blocks_match_their_entries_written_out(modes, gain, scale, eta):
    n, (a, b, *_) = modes
    built = (
        lambda: sum_gate(a, b, n),
        lambda: single_mode_squeeze(scale, a, n),
        lambda: two_mode_squeeze(gain, a, b, n),
        lambda: beam_splitter(eta, a, b, n),
    )
    for build, written in zip(built, _written_out(n, a, b, gain, scale, eta)):
        if np.isfinite(written).all():
            assert build().matrix.tobytes() == written.tobytes()
        else:
            # 1/scale overflows for a subnormal scale
            with pytest.raises(ValueError, match="^scale must have a finite reciprocal, got "):
                build()


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
