"""Symplectic matrices for Gaussian circuits on N bosonic modes.

Quadratures are ordered mode by mode, (q1, p1, ..., qN, pN), with
hbar = 1 so the vacuum variance of each quadrature is 1/2.  A Gaussian
unitary acts on the quadrature vector x as x -> S x, and composing
circuits multiplies matrices in operator order: the rightmost factor is
applied first, S_{AB} = S_A S_B.

Mode indices are 1-based throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._guard import checked, counted, frozen

__all__ = [
    "SymplecticTransform",
    "omega",
    "identity",
    "sum_gate",
    "single_mode_squeeze",
    "two_mode_squeeze",
    "beam_splitter",
    "compose",
    "inverse",
    "apply",
    "direct_sum",
    "is_symplectic",
]


@dataclass(frozen=True, eq=False)
class SymplecticTransform:
    """A symplectic matrix, which alone fixes the modes it acts on.

    The matrix is 2N x 2N with N >= 1 and satisfies S Omega S^T = Omega
    up to rounding.  Instances are immutable; the wrapped array is
    read-only.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = frozen("matrix", self.matrix, "finite")
        n = len(m) // 2 if m.ndim else 0
        if n < 1 or m.shape != (2 * n, 2 * n):
            raise ValueError(f"matrix shape {m.shape} is not 2N x 2N with N >= 1")
        object.__setattr__(self, "matrix", m)

    @property
    def n_modes(self) -> int:
        """N, the number of modes: half the matrix size."""
        return len(self.matrix) // 2

    def __repr__(self):
        return f"SymplecticTransform(n_modes={self.n_modes})"


def omega(n_modes: int) -> np.ndarray:
    """Symplectic form for `n_modes` modes in (q1, p1, ..., qN, pN) order."""
    return _omega(counted("n_modes", n_modes, 1)).copy()


@functools.lru_cache(maxsize=8)
def _omega(n_modes: int) -> np.ndarray:
    # the read-only form shared by `inverse` and `is_symplectic`
    w = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        w[2 * j, 2 * j + 1] = 1.0
        w[2 * j + 1, 2 * j] = -1.0
    w.flags.writeable = False
    return w


def _gate(block, modes, n_modes: int) -> SymplecticTransform:
    # the circuit acting as `block` on the (q, p) pairs of the 1-based
    # `modes`, in that order, and as the identity on every other mode
    counted("n_modes", n_modes, 1)
    for j in modes:
        if counted("mode index", j, 1) > n_modes:
            raise ValueError(f"mode index {j} out of range for {n_modes} modes")
    if len(set(modes)) < len(modes):
        raise ValueError(f"mode indices must differ, got {modes[0]} and {modes[1]}")
    rows = [2 * (j - 1) + off for j in modes for off in (0, 1)]
    m = np.eye(2 * n_modes)
    # scalar stores: for a 2x2 or 4x4 block they cost less than one
    # index-array assignment
    for r, row in zip(rows, block):
        for c, v in zip(rows, row):
            m[r, c] = v
    return SymplecticTransform(m)


def identity(n_modes: int) -> SymplecticTransform:
    """The do-nothing circuit on `n_modes` modes."""
    return SymplecticTransform(np.eye(2 * counted("n_modes", n_modes, 1)))


def sum_gate(ctrl: int, targ: int, n_modes: int) -> SymplecticTransform:
    """CV SUM gate adding the control position onto the target.

    Acts as q_targ -> q_targ + q_ctrl and p_ctrl -> p_ctrl - p_targ,
    leaving every other quadrature unchanged.

    Args:
        ctrl: 1-based control mode index.
        targ: 1-based target mode index, distinct from `ctrl`.
        n_modes: total number of modes.

    Raises:
        ValueError: if an index is out of range or ctrl == targ.
    """
    return _gate([[1, 0, 0, 0], [0, 1, 0, -1], [1, 0, 1, 0], [0, 0, 0, 1]], (ctrl, targ), n_modes)


def single_mode_squeeze(scale: float, mode: int, n_modes: int) -> SymplecticTransform:
    """Squeezer scaling q by `scale` and p by 1/`scale` on one mode.

    Args:
        scale: position scale factor, finite and positive with a finite
            reciprocal.  Values above 1 stretch the position quadrature.
        mode: 1-based mode index.
        n_modes: total number of modes.
    """
    scale = float(checked("scale", scale, "positive"))
    inv = 1.0 / scale
    if inv == math.inf:
        raise ValueError(f"scale must have a finite reciprocal, got {scale}")
    return _gate([[scale, 0], [0, inv]], (mode,), n_modes)


def two_mode_squeeze(gain: float, mode_a: int, mode_b: int, n_modes: int) -> SymplecticTransform:
    """Two-mode squeezing with amplification gain G >= 1.

    On the (q_a, p_a, q_b, p_b) block the matrix is

        [ sqrt(G) I        sqrt(G-1) Z ]
        [ sqrt(G-1) Z      sqrt(G) I   ]

    with Z = diag(1, -1).  G = 1 is the identity.

    Args:
        gain: amplification gain, G >= 1.
        mode_a: 1-based index of the first mode.
        mode_b: 1-based index of the second mode.
        n_modes: total number of modes.
    """
    checked("gain", gain, ">= 1")
    c, s = math.sqrt(gain), math.sqrt(gain - 1.0)
    block = [[c, 0, s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, -s, 0, c]]
    return _gate(block, (mode_a, mode_b), n_modes)


def beam_splitter(transmissivity: float, mode_a: int, mode_b: int, n_modes: int) -> SymplecticTransform:
    """Beam splitter with transmissivity eta in [0, 1].

    On the (q_a, p_a, q_b, p_b) block the matrix is

        [ sqrt(eta) I         sqrt(1-eta) I ]
        [ -sqrt(1-eta) I      sqrt(eta) I   ]

    so eta = 1 is the identity and eta = 1/2 is balanced.
    """
    checked("transmissivity", transmissivity, "in [0, 1]")
    t, r = math.sqrt(transmissivity), math.sqrt(1.0 - transmissivity)
    block = [[t, 0, r, 0], [0, t, 0, r], [-r, 0, t, 0], [0, -r, 0, t]]
    return _gate(block, (mode_a, mode_b), n_modes)


def compose(*transforms: SymplecticTransform) -> SymplecticTransform:
    """Compose circuits in operator order (rightmost applied first)."""
    if not transforms:
        raise ValueError("compose needs at least one transform")
    n = transforms[0].n_modes
    for t in transforms:
        if t.n_modes != n:
            raise ValueError(f"mode count mismatch in compose: {t.n_modes} vs {n}")
    m = transforms[0].matrix
    for t in transforms[1:]:
        m = m @ t.matrix
    return SymplecticTransform(m)


def inverse(transform: SymplecticTransform) -> SymplecticTransform:
    """Inverse circuit, computed from the symplectic structure.

    For symplectic S the inverse is -Omega S^T Omega, which avoids a
    numerical matrix inversion.
    """
    w = _omega(transform.n_modes)
    return SymplecticTransform(-w @ transform.matrix.T @ w)


def apply(transform: SymplecticTransform, vec: np.ndarray) -> np.ndarray:
    """Apply the circuit to quadrature vectors of shape (..., 2N)."""
    v = np.asarray(vec, dtype=float)
    if v.shape[-1] != 2 * transform.n_modes:
        raise ValueError(
            f"vector length {v.shape[-1]} does not match {transform.n_modes} modes"
        )
    # a C-ordered copy of S^T.  Every batch of two or more rows gives each
    # row the bits it has in any other such batch.  numpy sends a one-row
    # batch to gemv, which gives a 4x4 transform's batch bits only with the
    # copy (the transposed view rounds differently), and a 6x6 or larger one
    # may differ in the last bit even with it
    return v @ transform.matrix.T.copy()


def direct_sum(a: SymplecticTransform, b: SymplecticTransform) -> SymplecticTransform:
    """Circuit acting as `a` on the first modes and `b` on the rest."""
    n = a.n_modes + b.n_modes
    m = np.eye(2 * n)
    m[: 2 * a.n_modes, : 2 * a.n_modes] = a.matrix
    m[2 * a.n_modes :, 2 * a.n_modes :] = b.matrix
    return SymplecticTransform(m)


def is_symplectic(transform: SymplecticTransform, tol: float = 1e-12) -> bool:
    """Whether S Omega S^T = Omega holds entrywise within `tol`."""
    checked("tol", tol, "positive")
    w = _omega(transform.n_modes)
    s = transform.matrix
    return bool(np.abs(s @ w @ s.T - w).max() <= tol)
